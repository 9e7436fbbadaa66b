"""Repository benchmark: one workload per run, every output checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload gp_construct --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: it makes as many timed
passes over the workload's fixed trial list as its nominal pass length
fits into ``--seconds`` (at least one), reports per-pass medians, and
times set-up in fresh processes.  ``--trace 1`` runs one untraced pass,
then one pass with spans recorded around every layer boundary
(``spans.py``), and reports the per-layer metrics.  The last line of
standard output is the JSON result; the lines before it are a readable
summary.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Trial-id prefix of the service passes' spans (``<workload>/<pass>/<job>``).
WARM_PREFIX = "service_resubmit/"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", type=float, default=None, metavar="STAMP",
        help=argparse.SUPPRESS,  # internal: time one set-up from STAMP
    )
    return parser.parse_args(argv)


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Time ``SETUP_SAMPLES`` set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe", repr(time.monotonic()),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb(children_before: int) -> float:
    """Peak resident set of this process plus its largest reaped child.

    The children's figure survives ``exec``, so a launcher's own children
    can show up in it: it counts only if it grew during the run.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (children if children > children_before else 0)) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list, setup: list[float], rss: float) -> dict:
    wall = statistics.median(p.wall for p in passes)
    eval_sims = sum(t.eval_sims for t in passes[0].trials)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall, "s"),
        "eval_sims_per_s": metric(eval_sims / wall, "1/s"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def per_layer(untraced, traced, tracer, workers: int) -> dict:
    """Per-layer metrics of the traced pass (see README.md for each)."""
    seconds, calls = tracer.self_times()
    count = tracer.counters
    trials = traced.trials
    eval_sims = sum(t.eval_sims for t in trials)
    simulations = sum(t.simulations for t in trials)
    lookups = sum(t.fitness_evals for t in trials)
    pruned = sum(t.pruned for t in trials)
    worker_busy = count["worker_busy_s"]
    batch = seconds.get("core.backend.batch", 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    submit = sum(d for _, d in tracer.durations("service.submit"))
    run_request = sum(d for _, d in tracer.durations("service.run_request"))
    parts = untraced.parts
    warm = [parts[name] for name in parts if name.startswith("warm")]
    warm_apply = [
        tracer.self_times(f"{WARM_PREFIX}{name}/")[0].get("core.patch.apply", 0.0)
        for name in parts if name.startswith("warm")
    ]
    values = {
        "core.engine_self_s": (seconds.get("core.engine", 0.0), "s"),
        "core.harness.evaluate_s": (seconds.get("core.harness.evaluate", 0.0), "s"),
        "core.patch.apply_s": (seconds.get("core.patch.apply", 0.0), "s"),
        "core.patch.apply_calls": (calls.get("core.patch.apply", 0), "count"),
        "core.patch.applies_per_eval": (ratio(calls.get("core.patch.apply", 0), eval_sims), "ratio"),
        "hdl.parse_s": (seconds.get("hdl.parse", 0.0), "s"),
        "hdl.parse_calls": (calls.get("hdl.parse", 0), "count"),
        "hdl.codegen_s": (seconds.get("hdl.codegen", 0.0), "s"),
        "sim.elaborate_s": (seconds.get("sim.elaborate", 0.0), "s"),
        "sim.run_s": (seconds.get("sim.run", 0.0), "s"),
        "sim.run_calls": (calls.get("sim.run", 0) + int(count["worker_sim_runs"]), "count"),
        "sim.events": (int(count["sim.events"]), "count"),
        "instrument.trace_s": (seconds.get("instrument.trace", 0.0), "s"),
        "core.fitness_s": (seconds.get("core.fitness", 0.0), "s"),
        "core.evaluate_s": (seconds.get("core.evaluate", 0.0), "s"),
        "core.backend.batch_s": (batch, "s"),
        "core.backend.lifecycle_s": (seconds.get("core.backend.lifecycle", 0.0), "s"),
        "core.backend.worker_busy_s": (worker_busy, "s"),
        "core.backend.worker_parse_s": (count["worker_parse_s"], "s"),
        "core.backend.worker_sim_s": (count["worker_sim_s"], "s"),
        "core.backend.ipc_wait_s": (batch - worker_busy / workers if worker_busy else 0.0, "s"),
        "core.backend.cache_s": (seconds.get("core.backend.cache", 0.0), "s"),
        "core.backend.cache_hit_ratio": (
            ratio(count["backend_cache_hits"], count["backend_cache_lookups"]), "ratio"),
        "core.harness.resim_ratio": (ratio(simulations - eval_sims, eval_sims), "ratio"),
        "core.harness.memo_hit_ratio": (ratio(lookups - eval_sims - pruned, lookups), "ratio"),
        "cache.store.get_s": (seconds.get("cache.store.get", 0.0), "s"),
        "cache.store.put_s": (seconds.get("cache.store.put", 0.0), "s"),
        "cache.store.hit_ratio": (ratio(count["store_hits"], count["store_lookups"]), "ratio"),
        "service.journal_s": (seconds.get("service.journal", 0.0), "s"),
        "service.materialize_s": (seconds.get("service.materialize", 0.0), "s"),
        "service.overhead_s": (submit - run_request, "s"),
        "service.cold_pass_s": (parts.get("cold", 0.0), "s"),
        "service.warm_pass_s": (statistics.median(warm) if warm else 0.0, "s"),
        "service.warm_gap_s": (warm[0] - statistics.median(warm[1:]) if len(warm) > 1 else 0.0, "s"),
        "service.warm_gap_apply_s": (
            warm_apply[0] - statistics.median(warm_apply[1:]) if len(warm) > 1 else 0.0, "s"),
        "core.faultloc_s": (seconds.get("core.faultloc", 0.0), "s"),
        "core.faultloc_calls": (calls.get("core.faultloc", 0), "count"),
        "core.operators_s": (seconds.get("core.operators", 0.0), "s"),
        "core.selection_s": (seconds.get("core.selection", 0.0), "s"),
        "core.minimize_s": (seconds.get("core.minimize", 0.0), "s"),
        "lint.gate_s": (seconds.get("lint.gate", 0.0), "s"),
        "lint.pruned": (pruned, "count"),
        "synth.search_s": (seconds.get("synth.search", 0.0), "s"),
        "outcome.plausible": (sum(t.plausible for t in untraced.trials), "count"),
        "outcome.correct": (sum(t.correct for t in untraced.trials), "count"),
        "outcome.eval_sims": (sum(t.eval_sims for t in untraced.trials), "count"),
        "unattributed_s": (traced.wall - sum(seconds.values()), "s"),
        "tracing_overhead_s": (traced.wall - untraced.wall, "s"),
    }
    return {name: metric(entry[0], entry[1]) for name, entry in values.items()}


def main(argv: list[str]) -> int:
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    args = parse_args(argv)
    if not Path("src/repro").is_dir():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    sys.path.insert(0, str(HERE))
    from spans import Tracer, install  # noqa: E402  (needs the path set above)
    from workloads import (  # noqa: E402
        NOMINAL_PASS_SECONDS, OUT_DIR, WORKLOADS, Checker, fingerprint, make_workload,
    )

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload)
    if args.setup_probe is not None:
        workload.setup()
        print(time.monotonic() - args.setup_probe, flush=True)
        workload.teardown()
        return 0

    checker = Checker.for_workload(args.workload)
    tracer = Tracer()
    workload.setup()
    try:
        passes = [workload.run_pass(args.seed, tracer)]
        if args.trace:
            install(tracer)
            tracer.active = True
            passes.append(workload.run_pass(args.seed, tracer))
            tracer.active = False
        else:
            for _ in range(int(args.seconds // NOMINAL_PASS_SECONDS[args.workload]) - 1):
                passes.append(workload.run_pass(args.seed, tracer))
        rss = peak_rss_mb(children_before)
    finally:
        workload.teardown()
    trials = [trial for one in passes for trial in one.trials]
    workload.check(checker, trials)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} {json.dumps(fingerprint())}")
    for number, one in enumerate(passes):
        print(f"pass {number}: {one.wall:.3f}s {json.dumps({k: round(v, 3) for k, v in one.parts.items()})}")
        for trial in one.trials:
            status = trial.failure or "ok"
            print(
                f"  {trial.key:24s} {trial.seconds:8.3f}s plausible={trial.plausible} "
                f"correct={trial.correct} eval_sims={trial.eval_sims} {status}"
            )
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans))
        metrics = per_layer(passes[0], passes[1], tracer, workload.workers)
        print(f"spans: {len(tracer.spans)} written to {spans}")
    else:
        metrics = end_to_end(passes, setup_samples(args), rss)
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:14.4f} {entry['unit']}")
    failed = sum(1 for trial in trials if trial.failure)
    result = {"correct": failed == 0, "attempted": len(trials), "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
