"""Facade compatibility: keyword-only wrappers, engine registry."""

import warnings

import pytest

from repro.api import materialize_request, repair_scenario, run_request
from repro.core.config import RepairConfig
from repro.core.engines import engine_names, get_engine, register_engine
from repro.service.jobs import RepairRequest

TINY = RepairConfig(population_size=8, max_generations=2)

#: A minimal clocked design + testbench for text-based requests.
DESIGN = """\
module m(input clk, output reg q);
  always @(posedge clk) q <= 1'b1;
endmodule
"""
BENCH = """\
module tb;
  reg clk;
  wire q;
  m dut(clk, q);
  initial begin
    clk = 0;
    repeat (8) #5 clk = ~clk;
    $finish;
  end
endmodule
"""


class TestPositionalDeprecation:
    """The positional shim is gone: keywords only, positionals fail."""

    def test_keyword_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repair_scenario("counter_reset", config=TINY, seeds=(0,))

    def test_too_many_positionals_raise(self):
        with pytest.raises(TypeError):
            repair_scenario("counter_reset", TINY, (0,), None, "extra")


class TestEngineRegistry:
    def test_builtin_cirfix_is_registered(self):
        assert "cirfix" in engine_names()
        assert callable(get_engine("cirfix"))

    def test_unknown_engine_raises_with_listing(self):
        with pytest.raises(ValueError, match="cirfix"):
            get_engine("nope")

    def test_bad_engine_name_rejected(self):
        with pytest.raises(ValueError):
            register_engine("", lambda *a, **k: None)
        with pytest.raises(ValueError):
            register_engine("has space", lambda *a, **k: None)

    def test_custom_engine_is_routable_end_to_end(self):
        calls = {}

        def fake_engine(problem, config=None, seeds=(0,), backend=None,
                        observers=None, cancel=None, checkpoint=None):
            """Record the call and delegate to the real engine."""
            calls["seeds"] = seeds
            return get_engine("cirfix")(
                problem, config, seeds, backend=backend,
                observers=observers, cancel=cancel, checkpoint=checkpoint,
            )

        register_engine("fake-for-test", fake_engine)
        try:
            outcome = repair_scenario(
                "counter_reset", config=TINY, seeds=(0,), engine="fake-for-test"
            )
        finally:
            from repro.core import engines

            engines._REGISTRY.pop("fake-for-test", None)
        assert calls["seeds"] == (0,)
        assert outcome.seed == 0

    def test_request_validation_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown repair engine"):
            RepairRequest(scenario="s", engine="nope").validate()


class TestRunRequest:
    def test_scenario_request_runs(self):
        request = RepairRequest(
            scenario="counter_reset",
            config={"population_size": 8, "max_generations": 2},
            seeds=(0,),
        )
        outcome = run_request(request)
        assert outcome.seed == 0

    def test_materialize_applies_scenario_scaling(self):
        request = RepairRequest(scenario="counter_reset", seeds=(0,))
        problem, config = materialize_request(request)
        from repro.benchsuite import load_scenario

        suggested = load_scenario("counter_reset").suggested_config(RepairConfig())
        assert config == suggested
        assert problem.design is not None

    def test_text_request_with_golden_oracle(self):
        request = RepairRequest(
            design=DESIGN, testbench=BENCH, golden=DESIGN, seeds=(0,),
            config={"population_size": 4, "max_generations": 1},
        )
        problem, _ = materialize_request(request)
        assert problem.oracle is not None

    def test_invalid_request_raises_before_running(self):
        with pytest.raises(ValueError):
            run_request(RepairRequest())
