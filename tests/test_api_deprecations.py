"""The end of the positional-argument deprecation on the repro.api wrappers.

The facade's ``repair_scenario`` / ``repair_verilog`` once took
``config, seeds, observers`` positionally, through a shim that warned.
The shim is gone; the contract under test:

- the keyword path is silent — no warning, ever;
- any positional extra (``config`` included) is a TypeError.
"""

import warnings

import pytest

from repro.api import repair_scenario, repair_verilog
from repro.core import TEST_CONFIG
from repro.core.oracle import ensure_instrumented, generate_oracle
from repro.core.harness import RepairProblem
from repro.hdl import parse

DESIGN = """
module counter(clk, rst, out);
  input clk, rst;
  output [1:0] out;
  reg [1:0] out;
  always @(posedge clk) begin
    if (rst) out <= 0;
    else out <= out + 1;
  end
endmodule
"""

TESTBENCH = """
module tb;
  reg clk, rst;
  wire [1:0] out;
  counter dut(.clk(clk), .rst(rst), .out(out));
  always #5 clk = !clk;
  initial begin
    clk = 0; rst = 1;
    @(negedge clk);
    rst = 0;
    repeat (6) begin @(negedge clk); end
    $finish;
  end
endmodule
"""

#: Terminates at generation 0: the "faulty" design below is the golden
#: design, so the seed candidate already scores fitness 1.0.
FAST = TEST_CONFIG.scaled(population_size=2, max_generations=1)


def _problem() -> RepairProblem:
    golden = parse(DESIGN)
    bench = ensure_instrumented(parse(TESTBENCH), golden)
    oracle = generate_oracle(golden, bench)
    return RepairProblem(golden, bench, oracle)


def _deprecations(caught) -> list[warnings.WarningMessage]:
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestRepairVerilogShim:
    def test_keyword_path_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = repair_verilog(
                DESIGN, TESTBENCH, DESIGN, config=FAST, seeds=(0,)
            )
        assert _deprecations(caught) == []
        assert outcome.plausible

    def test_too_many_positional_extras_is_typeerror(self):
        with pytest.raises(TypeError):
            repair_verilog(DESIGN, TESTBENCH, DESIGN, FAST, (0,), None, "extra")


class TestRepairScenarioShim:
    def test_positional_config_is_typeerror(self):
        with pytest.raises(TypeError):
            repair_scenario(_problem(), FAST)

    def test_keyword_path_is_silent(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = repair_scenario(_problem(), config=FAST, seeds=(0,))
        assert _deprecations(caught) == []
        assert outcome.plausible
