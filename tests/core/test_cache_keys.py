"""Cache-key completeness: outcome-relevant config must never alias.

The persistent eval store is shared across runs, backends, and daemon
restarts, so two evaluation contexts that could produce *different*
results for the same candidate text must hash to different context
digests.  Conversely, knobs that only shape the GP search schedule (not
any single candidate's score) must NOT perturb the digest — otherwise
warm resubmissions with a tweaked budget would never hit.
"""

import dataclasses

import pytest

from repro.benchsuite import load_scenario
from repro.core.backend import (
    EvalCache,
    SerialBackend,
    decode_eval_payload,
    encode_eval_payload,
    eval_context_digest,
)
from repro.core.config import RepairConfig
from repro.core.fitness import FitnessBreakdown
from repro.instrument.trace import SimulationTrace


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("counter_reset")


@pytest.fixture(scope="module")
def base_digest(scenario):
    return eval_context_digest(
        scenario.project.testbench_text, scenario.oracle(), RepairConfig()
    )


def digest_with(scenario, **overrides) -> str:
    config = dataclasses.replace(RepairConfig(), **overrides)
    return eval_context_digest(
        scenario.project.testbench_text, scenario.oracle(), config
    )


class TestOutcomeRelevantKnobs:
    """Every knob that can change a candidate's score splits the key."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"phi": 3.0},
            {"max_sim_time": 123},
            {"max_sim_steps": 999},
            {"sim_engine": "interp"},
            {"worker_mem_mb": 256},
            {"lint_gate": True},
            # Deadline buckets: 0 (off) vs a 1-minute bucket.
            {"eval_deadline_seconds": 30.0, "backend": "process"},
        ],
    )
    def test_change_splits_the_digest(self, scenario, base_digest, overrides):
        assert digest_with(scenario, **overrides) != base_digest

    def test_gated_ruleset_change_splits_the_digest(self, scenario):
        gated = digest_with(scenario, lint_gate=True)
        narrowed = digest_with(
            scenario, lint_gate=True, lint_gate_rules="multi-driver"
        )
        assert gated != narrowed

    def test_deadline_buckets_quantize_to_minutes(self, scenario):
        # Same 1-minute bucket → same digest (restarts with slightly
        # different deadlines still share the cache) ...
        a = digest_with(scenario, eval_deadline_seconds=30.0)
        b = digest_with(scenario, eval_deadline_seconds=59.0)
        assert a == b
        # ... but crossing a bucket boundary splits it.
        c = digest_with(scenario, eval_deadline_seconds=61.0)
        assert a != c

    def test_testbench_and_oracle_split_the_digest(self, scenario):
        config = RepairConfig()
        base = eval_context_digest(
            scenario.project.testbench_text, scenario.oracle(), config
        )
        other_tb = eval_context_digest(
            scenario.project.testbench_text + "\n// v2", scenario.oracle(), config
        )
        assert other_tb != base
        halved = scenario.oracle().subsample(0.5)
        other_oracle = eval_context_digest(
            scenario.project.testbench_text, halved, config
        )
        assert other_oracle != base


class TestScheduleKnobsExcluded:
    """GP schedule knobs never alias-split the persistent cache."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"population_size": 7},
            {"max_generations": 99},
            {"max_wall_seconds": 1.0},
            {"max_fitness_evals": 5},
            {"eval_chunk_size": 3},
            {"workers": 8},
            {"minimize_budget": 1},
        ],
    )
    def test_schedule_change_keeps_the_digest(self, scenario, base_digest, overrides):
        assert digest_with(scenario, **overrides) == base_digest

    def test_ungated_ruleset_is_irrelevant(self, scenario, base_digest):
        # With the gate off, the rule list cannot affect any score.
        assert digest_with(scenario, lint_gate_rules="all") == base_digest

    def test_never_aliases_across_any_relevant_change(self, scenario):
        """The headline property: pairwise-distinct digests across a
        sweep of outcome-relevant contexts (no hash collisions/aliasing
        among the realistic neighbouring configurations)."""
        contexts = [
            {},
            {"phi": 3.0},
            {"max_sim_time": 123},
            {"sim_engine": "interp"},
            {"lint_gate": True},
            {"lint_gate": True, "lint_gate_rules": "multi-driver"},
            {"eval_deadline_seconds": 30.0},
            {"eval_deadline_seconds": 120.0},
            {"worker_mem_mb": 256},
        ]
        digests = [digest_with(scenario, **c) for c in contexts]
        assert len(set(digests)) == len(digests)


class TestPayloadCodec:
    """encode/decode round-trips every CandidateResult shape we persist."""

    def _trace(self):
        return SimulationTrace.from_csv("time,q\n0,1\n5,0\n")

    def test_success_with_trace_roundtrip(self):
        from repro.core.backend import CandidateResult, TraceSummary

        result = CandidateResult(
            0.75,
            FitnessBreakdown(0.75, 3.0, 4.0, 3, 1, 0),
            True,
            self._trace(),
            TraceSummary(rows=2, recorded_vars=1, mismatched_vars=("q",)),
            sim_events=10,
            sim_steps=20,
        )
        decoded = decode_eval_payload(encode_eval_payload(result))
        assert decoded is not None
        assert decoded.fitness == result.fitness
        assert decoded.breakdown == result.breakdown
        assert decoded.summary == result.summary
        assert decoded.trace is not None
        assert decoded.trace.to_csv() == result.trace.to_csv()

    def test_failure_without_trace_roundtrip(self):
        from repro.core.backend import CandidateResult

        result = CandidateResult(0.0, None, False, None, None)
        decoded = decode_eval_payload(encode_eval_payload(result))
        assert decoded is not None
        assert decoded.fitness == 0.0
        assert decoded.breakdown is None
        assert decoded.trace is None

    def test_garbage_payload_decodes_to_none(self):
        assert decode_eval_payload({"version": 1}) is None
        assert decode_eval_payload({"version": 99, "fitness": 1.0}) is None


class TestTieredEvalCache:
    """The memo's memory tier over a persistent store."""

    def _success(self, with_trace: bool):
        from repro.core.backend import CandidateResult, TraceSummary

        trace = SimulationTrace.from_csv("time,q\n0,1\n") if with_trace else None
        return CandidateResult(
            0.5,
            FitnessBreakdown(0.5, 1.0, 2.0, 1, 1, 0),
            True,
            trace,
            TraceSummary(rows=1, recorded_vars=1, mismatched_vars=()),
        )

    def _store(self, tmp_path):
        from repro.cache import PersistentEvalCache

        PersistentEvalCache.reset_shared()
        return PersistentEvalCache(tmp_path / "store")

    def test_disk_hit_after_memory_restart(self, tmp_path):
        store = self._store(tmp_path)
        warm = EvalCache(store=store, context="ctx", keep_traces=True)
        warm.put("module a; endmodule", self._success(with_trace=True))
        # Same store, fresh memory tier: must hit the disk.
        cold = EvalCache(store=store, context="ctx", keep_traces=True)
        result = cold.get("module a; endmodule")
        assert result is not None
        assert cold.info()["store_hits"] == 1
        assert result.trace is not None  # trace was persisted and replayed

    def test_context_isolates_entries(self, tmp_path):
        store = self._store(tmp_path)
        one = EvalCache(store=store, context="ctx-one", keep_traces=True)
        one.put("module a; endmodule", self._success(with_trace=True))
        other = EvalCache(store=store, context="ctx-two", keep_traces=True)
        assert other.get("module a; endmodule") is None

    def test_serial_tier_rejects_stripped_success(self, tmp_path):
        """A pool-written (traceless, successful) entry must be a serial
        miss — the serial backend's contract includes the trace."""
        store = self._store(tmp_path)
        pool = EvalCache(store=store, context="ctx", keep_traces=False)
        pool.put("module a; endmodule", self._success(with_trace=False))
        serial = EvalCache(store=store, context="ctx", keep_traces=True)
        assert serial.get("module a; endmodule") is None

    def test_pool_tier_strips_serial_traces(self, tmp_path):
        store = self._store(tmp_path)
        serial = EvalCache(store=store, context="ctx", keep_traces=True)
        serial.put("module a; endmodule", self._success(with_trace=True))
        pool = EvalCache(store=store, context="ctx", keep_traces=False)
        result = pool.get("module a; endmodule")
        assert result is not None
        assert result.trace is None

    def test_failed_entries_replay_on_both_tiers(self, tmp_path):
        from repro.core.backend import CandidateResult

        store = self._store(tmp_path)
        failed = CandidateResult(0.0, None, False, None, None)
        pool = EvalCache(store=store, context="ctx", keep_traces=False)
        pool.put("module bad; endmodule", failed)
        serial = EvalCache(store=store, context="ctx", keep_traces=True)
        replay = serial.get("module bad; endmodule")
        assert replay is not None
        assert replay.breakdown is None


class TestBackendIntegration:
    """A serial backend with cache_dir set survives a cold restart."""

    def test_serial_backend_restart_hits_disk(self, tmp_path, scenario):
        from repro.cache import PersistentEvalCache
        from repro.experiments.common import SMOKE

        PersistentEvalCache.reset_shared()
        config = dataclasses.replace(
            scenario.suggested_config(SMOKE), cache_dir=str(tmp_path / "c")
        )
        text = scenario.faulty_design_text
        first = SerialBackend.for_problem(scenario.problem(), config)
        first.evaluate_batch([text])
        assert first.cache.info()["store_hits"] == 0
        # "Restart": new backend instance, same persistent directory.
        second = SerialBackend.for_problem(scenario.problem(), config)
        second.evaluate_batch([text])
        info = second.cache.info()
        assert info["store_hits"] == 1
        PersistentEvalCache.reset_shared()
