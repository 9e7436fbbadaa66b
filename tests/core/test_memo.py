"""The evaluation memo's contract (:class:`repro.core.backend.EvalCache`).

One memo per backend holds every evaluation result the engine uses:

- a record for every candidate, with no capacity;
- the traces of the ``TRACE_CAPACITY`` most recently used candidates;
- the persistent store underneath, on the batch path only.

A lookup returns what its caller's own path would have computed, so the
trace policy, a warm disk tier and the backend choice change at most
``simulations`` (trace refreshes) — never what the search decides.
"""

import dataclasses
import multiprocessing

import pytest

from repro.benchsuite import load_scenario
from repro.cache import PersistentEvalCache
from repro.core.backend import (
    TRACE_CAPACITY,
    CandidateResult,
    EvalCache,
    ProcessPoolBackend,
    make_backend,
)
from repro.core.config import RepairConfig
from repro.core.fitness import FitnessBreakdown
from repro.core.harness import EngineHarness
from repro.core.patch import Patch
from repro.core.repair import CirFixEngine
from repro.instrument.trace import SimulationTrace

SCENARIO_ID = "dec_numeric"


@pytest.fixture(autouse=True)
def _fresh_store_registry():
    PersistentEvalCache.reset_shared()
    yield
    PersistentEvalCache.reset_shared()


def _success(fitness=0.5, traced=True) -> CandidateResult:
    trace = SimulationTrace.from_csv("time,q\n0,1\n") if traced else None
    return CandidateResult(
        fitness, FitnessBreakdown(fitness, 1.0, 2.0, 1, 1, 0), True, trace, None
    )


def _config(**overrides) -> RepairConfig:
    scenario = load_scenario(SCENARIO_ID)
    return scenario.suggested_config(
        RepairConfig(
            population_size=16,
            max_generations=2,
            max_wall_seconds=120.0,
            max_fitness_evals=150,
            minimize_budget=32,
            eval_chunk_size=8,
            **overrides,
        )
    )


def _outcome_key(outcome):
    """Every outcome field except wall-clock."""
    return (
        outcome.plausible,
        outcome.fitness,
        outcome.generations,
        outcome.fitness_evals,
        outcome.eval_sims,
        outcome.simulations,
        tuple(outcome.best_fitness_history),
        repr(outcome.patch),
        outcome.repaired_source,
    )


def _run(config, trace_capacity=None):
    problem = load_scenario(SCENARIO_ID).problem()
    with make_backend(problem, config) as backend:
        if trace_capacity is not None:
            backend.cache.trace_capacity = trace_capacity
        return CirFixEngine(problem, config, 0, backend=backend).run()


class TestTracePolicy:
    def test_257th_trace_evicts_the_least_recently_used(self):
        memo = EvalCache()
        texts = [f"module m{i}; endmodule" for i in range(TRACE_CAPACITY + 1)]
        for text in texts:
            memo.put(text, _success())
        assert memo.info()["traces"] == TRACE_CAPACITY
        assert memo.info()["size"] == TRACE_CAPACITY + 1
        # The oldest record lost its trace but keeps its fitness...
        assert memo.recall(texts[0]).trace is None
        assert memo.recall(texts[0]).fitness == 0.5
        # ...so the serial batch path, which returns traces, misses it.
        assert memo.get(texts[0]) is None
        assert all(memo.recall(text).trace is not None for text in texts[2:])

    def test_use_keeps_a_trace(self):
        memo = EvalCache(trace_capacity=2)
        memo.put("a", _success())
        memo.put("b", _success())
        memo.recall("a")  # a is now the most recently used
        memo.put("c", _success())
        assert memo.recall("a").trace is not None
        assert memo.recall("b").trace is None

    def test_pool_batch_path_strips_traces(self):
        memo = EvalCache(keep_traces=False)
        memo.remember("a", _success())
        hit = memo.get("a")
        assert hit is not None and hit.trace is None
        assert memo.recall("a").trace is not None  # the memo keeps it

    def test_in_process_path_needs_the_trace(self):
        memo = EvalCache()
        memo.put("pooled", _success(traced=False))
        assert memo.lookup("pooled") is None
        failed = CandidateResult(0.0, None, False, None, None)
        memo.put("broken", failed)
        assert memo.lookup("broken") is failed  # failures never carry one

    def test_in_process_path_never_writes_disk(self, tmp_path):
        store = PersistentEvalCache(tmp_path / "store")
        memo = EvalCache(store=store, context="ctx")
        memo.remember("a", _success())
        assert len(store) == 0
        assert memo.lookup("a") is not None
        assert store.info()["hits"] + store.info()["misses"] == 0


class TestRefreshAccounting:
    @pytest.mark.parametrize(
        "backend,trace_capacity", [("serial", 4), ("process", None)]
    )
    def test_refreshes_are_simulations_minus_eval_sims(
        self, monkeypatch, backend, trace_capacity
    ):
        refreshes = []
        original = EngineHarness._refresh

        def counting(self, design_text):
            refreshes.append(design_text)
            return original(self, design_text)

        monkeypatch.setattr(EngineHarness, "_refresh", counting)
        config = _config(backend=backend, workers=2)
        outcome = _run(config, trace_capacity)
        assert refreshes, "the scenario should need at least one refresh"
        assert outcome.simulations - outcome.eval_sims == len(refreshes)

    def test_trace_capacity_changes_only_simulations(self):
        roomy = _run(_config())
        tight = _run(_config(), trace_capacity=1)
        assert tight.simulations > roomy.simulations
        assert _outcome_key(dataclasses.replace(tight, simulations=0)) == (
            _outcome_key(dataclasses.replace(roomy, simulations=0))
        )


class TestWarmDiskTier:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_cold_and_warm_trials_are_identical(self, tmp_path, backend):
        config = _config(backend=backend, workers=2, cache_dir=str(tmp_path / "c"))
        cold = _run(config)
        PersistentEvalCache.reset_shared()  # a fresh process's view
        store = PersistentEvalCache.open(config.cache_dir)
        hits_before = store.info()["hits"]
        warm = _run(config)
        assert store.info()["hits"] > hits_before
        assert _outcome_key(warm) == _outcome_key(cold)


class TestInProcessPath:
    def test_evaluate_never_starts_a_pool(self):
        problem = load_scenario(SCENARIO_ID).problem()
        config = _config(backend="process", workers=2)
        engine = CirFixEngine(problem, config, 0)
        before = set(multiprocessing.active_children())
        try:
            assert engine.evaluate(Patch.empty()).compiled
            assert isinstance(engine._backend, ProcessPoolBackend)
            assert set(multiprocessing.active_children()) == before
        finally:
            engine._release_backend()

    def test_repeat_in_a_trial_is_recalled_not_rescored(self):
        problem = load_scenario(SCENARIO_ID).problem()
        engine = CirFixEngine(problem, _config(), 0)
        first = engine.evaluate(Patch.empty())
        second = engine.evaluate(Patch.empty())
        assert (engine.eval_sims, engine.simulations) == (1, 1)
        assert second.fitness == first.fitness
        assert second.trace is first.trace
