"""The compiled-simulation fast path seen from the repair engine.

Covers the ``sim_engine`` config switch, the backend's evaluation memo
(:class:`~repro.core.backend.EvalCache`), the adaptive chunk sizing, and
the headline guarantee: a fixed-seed repair under ``sim_engine =
"compiled"`` produces a bit-identical outcome to the interpreter.
"""

import dataclasses

import pytest

from repro.benchsuite import load_scenario
from repro.core.backend import EvalCache, SerialBackend, make_backend
from repro.core.config import ConfigError, RepairConfig
from repro.core.harness import adaptive_chunk_size
from repro.core.repair import CirFixEngine
from repro.experiments.common import SMOKE


class TestConfig:
    def test_sim_engine_default_and_choices(self):
        assert RepairConfig().sim_engine == "compiled"
        assert RepairConfig(sim_engine="interp").sim_engine == "interp"

    def test_sim_engine_rejects_unknown(self):
        with pytest.raises(ConfigError, match="sim_engine"):
            RepairConfig(sim_engine="jit").validate()


class TestAdaptiveChunkSize:
    def test_small_batches_use_the_floor(self):
        assert adaptive_chunk_size(1, 8) == 8
        assert adaptive_chunk_size(8, 8) == 8

    def test_exact_multiples_are_unchanged(self):
        assert adaptive_chunk_size(24, 8) == 8
        assert adaptive_chunk_size(16, 8) == 8

    def test_runt_chunks_are_absorbed(self):
        # 25 pending at floor 8 would be 8+8+8+1; adaptive gives 9+9+7.
        assert adaptive_chunk_size(25, 8) == 9
        # 15 at floor 8: one chunk instead of 8+7.
        assert adaptive_chunk_size(15, 8) == 15

    def test_never_drops_candidates(self):
        for batch in range(1, 200):
            for floor in (1, 4, 8, 16):
                size = adaptive_chunk_size(batch, floor)
                chunks = -(-batch // size)
                assert chunks * size >= batch
                # No chunk is larger than ~2x the floor once batches are
                # big enough to split.
                if batch > 2 * floor:
                    assert size < 2 * floor + floor

    def test_degenerate_floor(self):
        assert adaptive_chunk_size(10, 0) == 1
        assert adaptive_chunk_size(0, 8) == 8


class TestEvalCache:
    def _result(self, fitness=0.5, traced=True):
        from repro.core.backend import CandidateResult
        from repro.core.fitness import FitnessBreakdown
        from repro.instrument.trace import SimulationTrace

        trace = SimulationTrace.from_csv("time,q\n0,1\n") if traced else None
        breakdown = FitnessBreakdown(fitness, 1.0, 2.0, 1, 1, 0)
        return CandidateResult(fitness, breakdown, True, trace, None)

    def test_hit_replays_the_stored_result(self):
        cache = EvalCache()
        result = self._result()
        cache.put("module a; endmodule", result)
        assert cache.get("module a; endmodule") is result
        assert cache.info() == {
            "hits": 1, "misses": 0, "store_hits": 0, "size": 1, "traces": 1,
        }

    def test_miss_counts(self):
        cache = EvalCache()
        assert cache.get("nope") is None
        assert cache.info()["misses"] == 1

    def test_zero_capacity_disables(self):
        # A zero trace capacity keeps every record but no trace, so the
        # serial batch path (which needs the trace) never hits.
        cache = EvalCache(trace_capacity=0)
        cache.put("text", self._result())
        assert cache.get("text") is None
        assert cache.recall("text").trace is None
        assert cache.info() == {
            "hits": 0, "misses": 1, "store_hits": 0, "size": 1, "traces": 0,
        }

    def test_lru_eviction(self):
        cache = EvalCache(trace_capacity=2)
        cache.put("a", self._result(0.1))
        cache.put("b", self._result(0.2))
        assert cache.get("a") is not None  # refresh a
        cache.put("c", self._result(0.3))  # drops b's trace
        assert cache.get("b") is None
        assert cache.recall("b").fitness == 0.2  # the record stays
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_quarantined_results_are_never_cached(self):
        from repro.core.backend import _quarantine_result

        cache = EvalCache()
        cache.put("text", _quarantine_result("timeout", 3))
        assert cache.get("text") is None
        assert cache.recall("text") is None


class TestSerialBackendCache:
    def _backend(self, engine="interp"):
        scenario = load_scenario("counter_reset")
        config = dataclasses.replace(
            scenario.suggested_config(SMOKE), sim_engine=engine
        )
        return SerialBackend.for_problem(scenario.problem(), config)

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_repeat_batch_hits_the_cache(self, engine):
        backend = self._backend(engine)
        scenario = load_scenario("counter_reset")
        texts = [scenario.faulty_design_text]
        first = backend.evaluate_batch(texts)
        second = backend.evaluate_batch(texts)
        assert backend.cache.info()["hits"] == 1
        # The replayed result is the recorded one, counters included; a
        # hit spends no evaluation time, so its wall fields read 0.
        assert first[0].eval_seconds > 0.0
        assert second[0] == dataclasses.replace(
            first[0], eval_seconds=0.0, parse_seconds=0.0, sim_seconds=0.0
        )


def _outcome_key(outcome):
    """Everything except wall-clock (AST nodes compare by identity, so
    the patch is compared in its structural repr form)."""
    return (
        outcome.plausible,
        outcome.fitness,
        outcome.generations,
        outcome.fitness_evals,
        outcome.eval_sims,
        outcome.simulations,
        outcome.seed,
        tuple(outcome.best_fitness_history),
        repr(outcome.patch),
        outcome.repaired_source,
    )


class TestEngineOutcomeParity:
    def test_smoke_repair_is_bit_identical_across_engines(self):
        outcomes = {}
        for engine in ("interp", "compiled"):
            scenario = load_scenario("counter_reset")
            config = dataclasses.replace(
                scenario.suggested_config(SMOKE), sim_engine=engine
            )
            problem = scenario.problem()
            backend = make_backend(problem, config)
            try:
                outcomes[engine] = CirFixEngine(
                    problem, config, 0, backend=backend
                ).run()
            finally:
                backend.close()
        assert _outcome_key(outcomes["interp"]) == _outcome_key(
            outcomes["compiled"]
        )
        assert outcomes["compiled"].plausible
