"""Benchmark: the compiled-simulation fast path (repro.sim.compile).

Measures single-worker candidate-evaluation throughput on the
counter_reset scenario across the engine/cache matrix and writes the raw
numbers to ``BENCH_compiled_sim.json`` at the repo root:

1. one fixed 24-candidate batch scored by ``evaluate_design_text``
   directly under ``sim_engine`` ∈ {interp, compiled}, bypassing the
   backend's evaluation memo — the honest per-candidate speedup (every
   candidate still pays parse + fitness, which the compiled engine
   cannot remove);
2. the same batch replayed through a ``SerialBackend`` whose memo
   (:class:`EvalCache`) already holds it — the cross-trial workload the
   memo exists for (multi-seed experiments share one backend and
   re-score the seed design plus common early mutants); the headline
   ≥5× target is asserted here;
3. compile-time amortization: cold-compile vs warm-template simulator
   construction+run, against the interpreter baseline;
4. a SMOKE repair on the compiled engine across two seeds sharing one
   backend, recording the cache hit rate the second trial enjoys and
   asserting the seed-0 outcome is bit-identical to the interpreter's.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

from repro.benchsuite import load_scenario
from repro.core import backend as backend_mod
from repro.core.backend import SerialBackend, evaluate_design_text
from repro.core.repair import CirFixEngine
from repro.experiments.common import SMOKE
from repro.hdl import generate, parse
from repro.sim import CompiledSimulator, Simulator

_REPO_ROOT = Path(__file__).resolve().parents[1]
_RESULTS: dict[str, object] = {"scenario": "counter_reset", "cpu_count": os.cpu_count()}

#: The headline target: warm-cache candidate evaluation vs the
#: interpreter with no cache.
_TARGET_SPEEDUP = 5.0


def _scenario_problem_config(engine):
    scenario = load_scenario("counter_reset")
    config = dataclasses.replace(scenario.suggested_config(SMOKE), sim_engine=engine)
    return scenario, scenario.problem(), config


def _candidate_batch(problem, size=24):
    """A fixed batch of distinct design texts (comment-tagged so no two
    are string-equal, matching how the evaluation memo sees mutants)."""
    base = generate(problem.design)
    return [f"{base}\n// candidate {i}\n" for i in range(size)]


def _reset_compile_state():
    """Forget shared testbench templates (to measure a cold start)."""
    backend_mod._TB_COMPILE_STATE.clear()


def test_candidate_eval_throughput(once):
    _, problem, interp_config = _scenario_problem_config("interp")
    _, _, compiled_config = _scenario_problem_config("compiled")
    texts = _candidate_batch(problem)

    def score(config):
        """Score the batch with no memo in front of the pipeline."""
        start = time.monotonic()
        results = [
            evaluate_design_text(text, problem.testbench, problem.oracle, config)
            for text in texts
        ]
        return results, time.monotonic() - start

    def sweep():
        timings: dict[str, float] = {}
        baseline, timings["interp"] = score(interp_config)

        _reset_compile_state()
        cold, timings["compiled_cold"] = score(compiled_config)
        warm, timings["compiled_warm"] = score(compiled_config)

        cached = SerialBackend.for_problem(problem, compiled_config)
        cached.evaluate_batch(texts)  # populate the memo
        start = time.monotonic()
        replay = cached.evaluate_batch(texts)
        timings["compiled_cache_hit"] = time.monotonic() - start
        cache_info = cached.cache.info()
        return timings, baseline, cold, warm, replay, cache_info

    timings, baseline, cold, warm, replay, cache_info = once(sweep)

    # Parity: every path scores the batch identically.
    fitnesses = [r.fitness for r in baseline]
    for results in (cold, warm, replay):
        assert [r.fitness for r in results] == fitnesses
    assert all(r.compiled for r in baseline)
    assert cache_info["hits"] == len(texts)

    throughput = {
        key: len(texts) / seconds for key, seconds in timings.items() if seconds > 0
    }
    speedup_nocache = throughput["compiled_warm"] / throughput["interp"]
    speedup_cached = throughput["compiled_cache_hit"] / throughput["interp"]
    _RESULTS["batch"] = {
        "candidates": len(texts),
        "seconds": timings,
        "throughput_per_s": throughput,
        "speedup_compiled_no_cache": speedup_nocache,
        "speedup_warm_cache": speedup_cached,
        "cache": cache_info,
    }
    # The compiled engine must win outright with no memo in front
    # (every candidate still pays its unavoidable parse + fitness)...
    assert speedup_nocache > 1.2, (
        f"compiled engine slower than expected: {speedup_nocache:.2f}x"
    )
    # ...and the cross-trial cached workload carries the headline target.
    assert speedup_cached >= _TARGET_SPEEDUP, (
        f"warm-cache speedup {speedup_cached:.2f}x < {_TARGET_SPEEDUP}x"
    )


def test_compile_time_amortization(once):
    scenario, _, _ = _scenario_problem_config("compiled")
    combined = parse(
        scenario.faulty_design_text + "\n" + scenario.project.testbench_text
    )
    runs = 30

    def sweep():
        start = time.monotonic()
        Simulator(combined).run(1_000_000)
        interp_first = time.monotonic() - start
        start = time.monotonic()
        for _ in range(runs):
            Simulator(combined).run(1_000_000)
        interp_steady = (time.monotonic() - start) / runs

        shared: dict = {}
        ids = frozenset(id(m) for m in combined.modules)
        start = time.monotonic()
        CompiledSimulator(combined, shared_cache=shared, shared_module_ids=ids).run(
            1_000_000
        )
        cold = time.monotonic() - start
        start = time.monotonic()
        for _ in range(runs):
            CompiledSimulator(
                combined, shared_cache=shared, shared_module_ids=ids
            ).run(1_000_000)
        steady = (time.monotonic() - start) / runs
        return interp_first, interp_steady, cold, steady

    interp_first, interp_steady, cold, steady = once(sweep)
    _RESULTS["amortization"] = {
        "runs": runs,
        "interp_first_seconds": interp_first,
        "interp_steady_seconds": interp_steady,
        "compiled_cold_seconds": cold,
        "compiled_steady_seconds": steady,
        "compile_overhead_seconds": max(0.0, cold - steady),
        "raw_sim_speedup": interp_steady / steady if steady > 0 else float("inf"),
    }
    assert steady < interp_steady, "compiled steady-state should beat interp"


def test_smoke_repair_cache_hit_rate(once):
    """Two seeds sharing one compiled backend; outcome parity vs interp."""
    _, problem, interp_config = _scenario_problem_config("interp")
    _, _, compiled_config = _scenario_problem_config("compiled")

    def run(config, backend, seed):
        start = time.monotonic()
        outcome = CirFixEngine(problem, config, seed, backend=backend).run()
        return outcome, time.monotonic() - start

    def sweep():
        serial = SerialBackend.for_problem(problem, interp_config)
        interp_outcome, interp_s = run(interp_config, serial, 0)

        _reset_compile_state()
        shared = SerialBackend.for_problem(problem, compiled_config)
        compiled_outcome, compiled_s = run(compiled_config, shared, 0)
        after_first = dict(shared.cache.info())
        _, second_s = run(compiled_config, shared, 1)
        after_second = shared.cache.info()
        return (
            interp_outcome, interp_s,
            compiled_outcome, compiled_s, second_s,
            after_first, after_second,
        )

    (
        interp_outcome, interp_s,
        compiled_outcome, compiled_s, second_s,
        after_first, after_second,
    ) = once(sweep)

    # Engine parity on the full outcome surface.
    assert compiled_outcome.plausible == interp_outcome.plausible
    assert compiled_outcome.fitness == interp_outcome.fitness
    assert compiled_outcome.eval_sims == interp_outcome.eval_sims
    assert (
        compiled_outcome.best_fitness_history == interp_outcome.best_fitness_history
    )
    assert repr(compiled_outcome.patch) == repr(interp_outcome.patch)
    assert interp_outcome.plausible, "counter_reset should repair under SMOKE"

    second_trial_hits = after_second["hits"] - after_first["hits"]
    second_trial_misses = after_second["misses"] - after_first["misses"]
    lookups = second_trial_hits + second_trial_misses
    _RESULTS["smoke_repair"] = {
        "interp_seconds": interp_s,
        "compiled_seconds": compiled_s,
        "compiled_speedup": interp_s / compiled_s if compiled_s > 0 else float("inf"),
        "second_seed_seconds": second_s,
        "cache_after_seed0": after_first,
        "cache_after_seed1": dict(after_second),
        "second_trial_hit_rate": second_trial_hits / lookups if lookups else 0.0,
    }
    # The first trial cannot hit (the engine memoises within a trial);
    # the second trial re-scores the seed design and early mutants.
    assert after_first["hits"] == 0
    assert second_trial_hits > 0, "second seed saw no cross-trial repeats"

    (_REPO_ROOT / "BENCH_compiled_sim.json").write_text(
        json.dumps(_RESULTS, indent=2) + "\n"
    )
