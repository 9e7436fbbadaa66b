"""Record the outcome digests every benchmark run is checked against.

Usage, from the repository root (takes about a minute)::

    python3 perfbench/record.py

Runs each workload's trials once, in-process and on the serial backend:
``gp_pool_simulate`` is recorded serially because its outcomes must be
bit-identical on every backend, and the service jobs are recorded with
``run_request`` directly because a job submitted to the daemon must
match the same request run in-process.  Re-record only when a change is
meant to alter outcomes, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.api import run_request  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DIGESTS, GP_SCENARIOS, SERVICE_JOBS, TRIAL_SEED, Checker, GPWorkload, ServiceWorkload,
    Trial, fingerprint, service_request,
)


def entries(workload, trials: list[Trial]) -> dict:
    """Check ``trials`` (all but the digest being recorded) and describe them."""
    workload.check(Checker({t.key: {"digest": t.digest} for t in trials}), trials)
    for trial in trials:
        if trial.failure:
            raise SystemExit(f"{trial.key}: {trial.failure}")
        print(trial.key, trial.digest, f"plausible={trial.plausible} correct={trial.correct}")
    return {
        trial.key: {
            "digest": trial.digest,
            "plausible": trial.plausible,
            "correct": trial.correct,
            "eval_sims": trial.eval_sims,
            "fitness": trial.fitness,
        }
        for trial in trials
    }


def main() -> None:
    workloads: dict[str, dict] = {}
    for name, scenarios in GP_SCENARIOS.items():
        workload = GPWorkload(name, scenarios, backend="serial", workers=1)
        workload.setup()
        workloads[name] = entries(workload, workload.run_pass(0, Tracer()).trials)
    trials = [
        Trial(f"{scenario}/{engine}", scenario, 0.0).take(
            run_request(service_request(scenario, engine, extra))
        )
        for scenario, engine, extra in SERVICE_JOBS
    ]
    workloads["service_resubmit"] = entries(ServiceWorkload(), trials)
    document = {"trial_seed": TRIAL_SEED, "fingerprint": fingerprint(), "workloads": workloads}
    DIGESTS.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
