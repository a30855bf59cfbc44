"""Regenerate ``pins.json``: the digests and verdicts the benchmark checks.

Run from the repository root::

    python3 perfbench/pin.py

Every operation of ``run.py`` is compared with these pins, so they may
change only together with a deliberate change of protocol behaviour or
of the benchmark's inputs.  Each pin is a canonical trace digest plus
the sorted names of the CD1-CD7 properties the run violates (loss may
excuse liveness, so a lossy sweep point can pin a non-empty list).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.api import ExperimentSession, SweepSpec, load_spec, quickstart_spec  # noqa: E402
from repro.service import execute_document  # noqa: E402

from harness import Tracer, failed_properties, properties_of_violations  # noqa: E402
from workloads import (  # noqa: E402
    SERVICE_SEED_POOL,
    SERVICE_SIDE,
    SWEEP_SEED_POOL,
    large_inputs,
    sweep_point_key,
    sweep_spec,
)


def _pin(result) -> dict:
    return {"digest": result.digest(), "failed": failed_properties(result.specification)}


def main() -> int:
    session = ExperimentSession()
    document = large_inputs(Tracer()).document
    large = _pin(session.run(load_spec(document)))
    large["spec_digest"] = load_spec(document).digest()

    every_seed = SweepSpec.from_dict(
        dict(sweep_spec(0).to_dict(), seeds=list(range(SWEEP_SEED_POOL)))
    )
    sweep = {sweep_point_key(point): _pin(session.run(point)) for point in every_seed.expand()}

    service = {}
    for seed in range(SERVICE_SEED_POOL):
        envelope = execute_document(quickstart_spec(side=SERVICE_SIDE, seed=seed).to_dict())
        violations = envelope["result"]["specification"]["violations"]
        service[str(seed)] = {
            "digest": envelope["digest"],
            "failed": properties_of_violations(violations),
        }

    pins = {"single-large": large, "sweep-churn-faults": sweep, "service-mixed": service}
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {1 + len(sweep) + len(service)} runs -> {BENCH_DIR / 'pins.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
