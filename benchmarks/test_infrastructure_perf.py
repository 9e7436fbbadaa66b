"""Infrastructure micro-benchmarks (supporting data for the runtime
analysis: the paper reports >90% of repair time goes to simulations, so
simulator and frontend throughput bound everything else)."""

from repro.benchsuite import load_project
from repro.core.fitness import evaluate_fitness
from repro.core.oracle import combine_sources, ensure_instrumented
from repro.hdl import generate, parse
from repro.sim.simulator import Simulator


def _counter_sources():
    project = load_project("counter")
    golden = parse(project.design_text)
    bench = ensure_instrumented(parse(project.testbench_text), golden)
    return project, golden, bench


def test_parse_throughput(benchmark):
    project = load_project("sdram_controller")
    tree = benchmark(parse, project.design_text)
    assert tree.modules


def test_codegen_throughput(benchmark):
    tree = parse(load_project("sdram_controller").design_text)
    text = benchmark(generate, tree)
    assert "module sdram_controller" in text


def test_simulation_throughput(benchmark):
    project, golden, bench = _counter_sources()
    combined = combine_sources(golden, bench)

    def simulate():
        return Simulator(combined.clone()).run(10_000)

    result = benchmark(simulate)
    assert result.finished
    assert len(result.trace) >= 20


def test_fitness_throughput(benchmark):
    from repro.benchsuite import load_scenario

    scenario = load_scenario("counter_reset")
    oracle = scenario.oracle()
    from repro.benchsuite.scenario import simulate_design_text

    trace = simulate_design_text(scenario.faulty_design_text, scenario.instrumented_testbench())
    breakdown = benchmark(evaluate_fitness, trace, oracle)
    assert 0 < breakdown.fitness < 1


def test_end_to_end_candidate_evaluation(benchmark):
    """One full candidate evaluation: codegen → parse → elaborate →
    simulate → fitness — the unit the paper's 12-hour budgets buy."""
    from repro.benchsuite import load_scenario
    from repro.core.repair import CirFixEngine
    from repro.core.patch import Patch
    from repro.experiments.common import SMOKE

    scenario = load_scenario("counter_reset")
    problem = scenario.problem()
    config = scenario.suggested_config(SMOKE)

    def evaluate_uncached():
        # A fresh engine builds a fresh backend with an empty memo.
        return CirFixEngine(problem, config).evaluate(Patch.empty())

    evaluation = benchmark(evaluate_uncached)
    assert evaluation.compiled
