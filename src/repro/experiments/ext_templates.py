"""Extended-template ablation (paper §5.2 future work, implemented).

The paper's canonical unrepairable defect is rs_regsize: an expert shrank
``delay_cnt`` to 8 bits before it must hold the decimal 500, and "none of
[CirFix's] operators or repair templates are capable of increasing the
number of bits allocated".  The paper suggests "adding more repair
templates can help in such cases" — this experiment runs that suggestion:
same engine, same budgets, template set ± the extension templates of
:mod:`repro.core.templates`, on defects from the unsupported classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..benchsuite import load_scenario
from ..core.config import RepairConfig
from ..core.repair import repair
from .common import QUICK, format_table

#: Defect scenarios from classes the paper reports as unrepairable with the
#: core template set.
TARGET_SCENARIOS: tuple[str, ...] = ("rs_regsize", "ff_branches")


@dataclass
class ExtAblationRow:
    scenario_id: str
    core_plausible: bool
    core_fitness: float
    extended_plausible: bool
    extended_fitness: float
    extended_patch: str


def run_ext_ablation(
    scenario_ids: tuple[str, ...] = TARGET_SCENARIOS,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0, 1),
) -> list[ExtAblationRow]:
    """Run each target scenario with and without the extension templates."""
    config = config or QUICK
    rows = []
    for scenario_id in scenario_ids:
        scenario = load_scenario(scenario_id)
        scaled = scenario.suggested_config(config)
        core = repair(scenario.problem(), scaled.scaled(extended_templates=False), seeds)
        ext = repair(scenario.problem(), scaled.scaled(extended_templates=True), seeds)
        rows.append(
            ExtAblationRow(
                scenario_id=scenario_id,
                core_plausible=core.plausible,
                core_fitness=core.fitness,
                extended_plausible=ext.plausible,
                extended_fitness=ext.fitness,
                extended_patch=ext.patch.describe() if ext.plausible else "-",
            )
        )
    return rows


def render_ext_ablation(rows: list[ExtAblationRow]) -> str:
    """Render the ablation rows as a text table."""
    body = [
        [
            r.scenario_id,
            "yes" if r.core_plausible else "no",
            f"{r.core_fitness:.3f}",
            "yes" if r.extended_plausible else "no",
            f"{r.extended_fitness:.3f}",
            r.extended_patch[:50],
        ]
        for r in rows
    ]
    table = format_table(
        ["Scenario", "Core", "Fitness", "Extended", "Fitness", "Extended patch"], body
    )
    return table + (
        "\n(paper: rs_regsize unrepairable with the core templates; "
        "'adding more repair templates can help')"
    )


def main(preset: str = "quick") -> None:
    """Print the extended-template ablation."""
    from .common import PRESETS

    print("Extended-template ablation (Section 5.2 future work)")
    print(render_ext_ablation(run_ext_ablation(config=PRESETS[preset])))


if __name__ == "__main__":  # pragma: no cover
    main()
