"""RQ4: sensitivity to the quality of the correctness information (§5.4).

The paper degrades the expected-behaviour annotations from 100% → 50% →
25% of timestamps and observes plausible repairs go 21 → 20 → 20 while
correct repairs drop 16 → 12 → 10: the repair *rate* is robust but
repair *quality* degrades gracefully.

We reproduce the protocol: for each scenario, subsample the oracle rows,
re-run the repair, and judge plausibility against the degraded oracle but
correctness against the held-out validation bench.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..api import repair_scenario
from ..benchsuite import Scenario, all_scenarios, load_scenario
from ..core.config import RepairConfig
from ..core.harness import RepairProblem
from .common import QUICK, format_table

#: The paper's oracle-completeness levels.
LEVELS: tuple[float, ...] = (1.0, 0.5, 0.25)


@dataclass
class Rq4Cell:
    fraction: float
    plausible: int
    correct: int
    total: int


@dataclass
class Rq4Result:
    cells: list[Rq4Cell]

    def by_fraction(self, fraction: float) -> Rq4Cell:
        """The cell for one oracle-completeness level."""
        for cell in self.cells:
            if cell.fraction == fraction:
                return cell
        raise KeyError(fraction)


def _repair_with_degraded_oracle(
    scenario: Scenario,
    fraction: float,
    config: RepairConfig,
    seeds: tuple[int, ...],
) -> tuple[bool, bool]:
    """Returns (plausible, correct) for one scenario at one oracle level."""
    oracle = scenario.oracle().subsample(fraction)
    problem = RepairProblem(
        scenario.problem().design,
        scenario.instrumented_testbench(),
        oracle,
        name=f"{scenario.scenario_id}@{fraction}",
    )
    scaled = scenario.suggested_config(config)
    # repair() stops at the first plausible seed, matching the old loop.
    outcome = repair_scenario(problem, config=scaled, seeds=seeds)
    if outcome.plausible and outcome.repaired_source is not None:
        return True, scenario.is_correct_repair(outcome.repaired_source)
    return False, False


def run_rq4(
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0, 1),
    scenario_ids: Iterable[str] | None = None,
    levels: tuple[float, ...] = LEVELS,
) -> Rq4Result:
    """Repair every scenario at each oracle-completeness level."""
    config = config or QUICK
    scenarios = (
        [load_scenario(sid) for sid in scenario_ids]
        if scenario_ids is not None
        else all_scenarios()
    )
    cells = []
    for fraction in levels:
        plausible = correct = 0
        for scenario in scenarios:
            p, c = _repair_with_degraded_oracle(scenario, fraction, config, seeds)
            plausible += p
            correct += c
        cells.append(Rq4Cell(fraction, plausible, correct, len(scenarios)))
    return Rq4Result(cells)


#: Paper headline numbers for the summary line.
PAPER_RQ4 = {1.0: (21, 16), 0.5: (20, 12), 0.25: (20, 10)}


def render_rq4(result: Rq4Result) -> str:
    """Render the RQ4 cells as a text table."""
    rows = []
    for cell in result.cells:
        paper = PAPER_RQ4.get(cell.fraction)
        paper_text = f"{paper[0]}/{paper[1]}" if paper else "-"
        rows.append(
            [
                f"{cell.fraction * 100:.0f}%",
                f"{cell.plausible}/{cell.total}",
                f"{cell.correct}/{cell.total}",
                paper_text,
            ]
        )
    return format_table(
        ["Oracle level", "Plausible", "Correct", "Paper (plaus/correct of 32)"], rows
    )


def main(preset: str = "quick") -> None:
    """Print RQ4."""
    from .common import PRESETS

    print("RQ4: sensitivity to correctness information")
    print(render_rq4(run_rq4(PRESETS[preset])))


if __name__ == "__main__":  # pragma: no cover
    main()
