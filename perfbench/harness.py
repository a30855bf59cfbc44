"""Measurement plumbing shared by the workloads.

Everything here observes the program from outside: spans around calls
into a layer's public functions, a ``CliffEdgeNode`` subclass that times
the protocol handlers, and a fault-model wrapper that counts link-fault
decisions.  None of it changes what the program computes; the traced run
proves that by producing the same digests as the untraced one.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.core import CliffEdgeNode

#: The modules a user of any workload imports before the first run.
IMPORTED_MODULES = (
    "repro",
    "repro.api",
    "repro.experiments.runner",
    "repro.churn.runner",
    "repro.sim.partition",
    "repro.service",
    "repro.vtime",
)

#: Span names whose time is spent encoding and hashing the trace.
DIGEST_SPANS = ("trace.digest", "partition.parent_digest", "churn.digest")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class Tracer:
    """In-memory spans: ``[name, start, end, parent index]`` per span.

    Every traced operation opens one root span named ``op``; the layer
    spans inside it are its direct children.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wall(self, index: int) -> float:
        _name, start, end, _parent = self.spans[index]
        return end - start

    def children(self, index: int) -> dict[str, float]:
        """Seconds per span name among the direct children of ``index``."""
        totals: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            if parent == index:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def ops(self) -> list[int]:
        return [i for i, record in enumerate(self.spans) if record[0] == "op"]

    def span_share(self) -> float:
        """Median share of an op's wall covered by its layer spans."""
        shares = [
            sum(self.children(op).values()) / self.wall(op)
            for op in self.ops()
            if self.wall(op) > 0
        ]
        return statistics.median(shares) if shares else 0.0

    def digest_share(self) -> float:
        """Median share of an op's wall spent producing the trace digest."""
        shares = []
        for op in self.ops():
            children = self.children(op)
            digest = sum(children.get(name, 0.0) for name in DIGEST_SPANS)
            if self.wall(op) > 0:
                shares.append(digest / self.wall(op))
        return statistics.median(shares) if shares else 0.0

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                }
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Layer probes
# ---------------------------------------------------------------------------
@dataclass
class HandlerClock:
    """Accumulated wall time inside protocol handlers (sends included)."""

    seconds: float = 0.0
    depth: int = 0


class TimedNode(CliffEdgeNode):
    """A ``CliffEdgeNode`` that times ``on_start``, ``on_crash`` and
    ``on_message`` into a shared :class:`HandlerClock`."""

    def __init__(self, node_id: Any, clock: HandlerClock, **kwargs: Any) -> None:
        super().__init__(node_id, **kwargs)
        self._clock = clock

    def _timed(self, handler: Callable[..., Any], *args: Any) -> Any:
        clock = self._clock
        if clock.depth:
            return handler(*args)
        clock.depth += 1
        started = perf_counter()
        try:
            return handler(*args)
        finally:
            clock.seconds += perf_counter() - started
            clock.depth -= 1

    def on_start(self, ctx: Any) -> None:
        self._timed(super().on_start, ctx)

    def on_crash(self, ctx: Any, crashed: Any) -> None:
        self._timed(super().on_crash, ctx, crashed)

    def on_message(self, ctx: Any, sender: Any, message: Any) -> None:
        self._timed(super().on_message, ctx, sender, message)


def timed_node_factory(clock: HandlerClock, **kwargs: Any) -> Callable[[Any], TimedNode]:
    return lambda node_id: TimedNode(node_id, clock, **kwargs)


class CountingFaults:
    """Delegates every link-fault decision to ``model`` and counts it."""

    def __init__(self, model: Any) -> None:
        self.model = model
        self.decisions = 0
        self.lost = 0
        self.duplicated = 0

    def deliveries(
        self, source: Any, target: Any, sequence: int, seed: int = 0
    ) -> tuple[float, ...]:
        offsets = self.model.deliveries(source, target, sequence, seed)
        self.decisions += 1
        if not offsets:
            self.lost += 1
        else:
            self.duplicated += len(offsets) - 1
        return offsets

    def max_extra_delay(self) -> float:
        return self.model.max_extra_delay()


# ---------------------------------------------------------------------------
# Outcome of one benchmark run
# ---------------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    #: Failed operations and failed run-level checks, one line each.
    errors: list[str] = field(default_factory=list)
    #: Run-level checks that failed (not operations).
    problems: int = 0
    metrics: dict[str, Metric] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def attempt(self, label: str, operation: Callable[[], Optional[str]]) -> bool:
        """Run one operation; a raised error or a returned message fails it."""
        self.attempted += 1
        try:
            problem = operation()
        except Exception as exc:  # one failed operation must not end the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.errors.append(f"{label}: {problem}")
            return False
        return True

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems += 1
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.problems == 0


# ---------------------------------------------------------------------------
# Statistics and measurement helpers
# ---------------------------------------------------------------------------
def tail_percentile(values: list[float], percent: int) -> Optional[float]:
    """The ``percent``-th percentile, or None unless ten samples lie beyond it."""
    if len(values) < 2:
        return None
    cut = statistics.quantiles(values, n=100)[percent - 1]
    if sum(1 for value in values if value > cut) < 10:
        return None
    return cut


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def import_seconds(src: Path) -> float:
    """Wall time a fresh interpreter takes to import the program."""
    code = (
        "import time; started = time.perf_counter()\n"
        f"for name in {IMPORTED_MODULES!r}: __import__(name)\n"
        "print(time.perf_counter() - started)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(completed.stdout.strip())


def failed_properties(specification: Any) -> list[str]:
    """Sorted names of the CD1-CD7 properties a report says are violated."""
    return sorted(
        name for name, report in specification.reports.items() if not report.holds
    )


def properties_of_violations(violations: Any) -> list[str]:
    """Sorted property names from ``"CDn: ..."`` violation strings."""
    return sorted({violation.split(":", 1)[0] for violation in violations})


def source_digest(src: Path) -> str:
    """SHA-256 over every Python file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return completed.stdout.strip() or None


def stamp(root: Path, src: Path, digests: dict[str, str]) -> dict[str, Any]:
    """CPU count, interpreter, source identity and the run's digests."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "src_sha256": source_digest(src),
        "digests": digests,
    }
