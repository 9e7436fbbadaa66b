"""repro.api facade tests (scenario resolution, localize, simulate,
build_problem).  The heavyweight repair path is covered by
test_public_api.py and tests/obs/."""

import pytest

from repro.api import build_problem, localize, repair_scenario, simulate
from repro.core.harness import RepairProblem

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


class TestSimulate:
    def test_design_alone(self):
        result = simulate("module t; initial $finish; endmodule")
        assert result.finished
        assert result.events_executed >= 1

    def test_with_testbench_and_record(self):
        result = simulate(DESIGN, TESTBENCH, record=True)
        assert result.finished
        assert result.trace, "record=True should capture a trace"

    def test_without_record_no_trace(self):
        result = simulate(DESIGN, TESTBENCH)
        assert result.finished
        assert not result.trace


class TestLocalize:
    def test_scenario_id(self):
        loc = localize("dec_numeric")
        assert len(loc) > 0
        assert loc.mismatch

    def test_matching_design_yields_empty_localization(self):
        from repro.core.oracle import ensure_instrumented, generate_oracle
        from repro.hdl import parse

        golden = parse(DESIGN)
        bench = ensure_instrumented(parse(TESTBENCH), golden)
        oracle = generate_oracle(golden, bench)
        problem = RepairProblem(golden, bench, oracle)
        assert len(localize(problem)) == 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            localize("not_a_scenario")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError, match="scenario"):
            repair_scenario(42)


class TestBuildProblem:
    def test_from_golden(self, tmp_path):
        faulty = DESIGN.replace("out <= out + 1", "out <= out + 2")
        (tmp_path / "faulty.v").write_text(faulty)
        (tmp_path / "tb.v").write_text(TESTBENCH)
        (tmp_path / "golden.v").write_text(DESIGN)
        problem = build_problem(
            tmp_path / "faulty.v", tmp_path / "tb.v", golden=tmp_path / "golden.v"
        )
        assert problem.name == "faulty"
        assert problem.oracle.rows

    def test_requires_an_oracle_source(self, tmp_path):
        (tmp_path / "faulty.v").write_text(DESIGN)
        (tmp_path / "tb.v").write_text(TESTBENCH)
        with pytest.raises(ValueError, match="golden design or an oracle CSV"):
            build_problem(tmp_path / "faulty.v", tmp_path / "tb.v")
