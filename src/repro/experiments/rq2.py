"""RQ2: repair performance by defect category (paper §5.2).

Aggregates Table 3 results into Category 1 ("easy") vs Category 2 ("hard")
repair rates and compares repair times with a two-tailed Mann-Whitney U
test — the paper found no significant difference (p = 0.373), i.e. CirFix
repairs both categories comparably.
"""

from __future__ import annotations

from dataclasses import dataclass

from .common import ScenarioResult, format_table


@dataclass
class CategorySummary:
    category: int
    total: int
    plausible: int
    correct: int
    mean_repair_seconds: float | None
    mean_simulations: float

    @property
    def plausible_rate(self) -> float:
        return self.plausible / self.total if self.total else 0.0


@dataclass
class Rq2Result:
    cat1: CategorySummary
    cat2: CategorySummary
    mannwhitney_u: float | None
    p_value: float | None


def _summarise(results: list[ScenarioResult], category: int) -> CategorySummary:
    subset = [r for r in results if r.category == category]
    times = [r.repair_seconds for r in subset if r.repair_seconds is not None]
    return CategorySummary(
        category=category,
        total=len(subset),
        plausible=sum(1 for r in subset if r.plausible),
        correct=sum(1 for r in subset if r.correct),
        mean_repair_seconds=sum(times) / len(times) if times else None,
        mean_simulations=(
            sum(r.simulations for r in subset) / len(subset) if subset else 0.0
        ),
    )


def analyze_rq2(results: list[ScenarioResult]) -> Rq2Result:
    """Aggregate Table 3 results by category and run the Mann-Whitney U test.

    The test needs scipy (the optional ``stats`` extra), imported only
    when both categories have repair times to compare.
    """
    cat1 = _summarise(results, 1)
    cat2 = _summarise(results, 2)
    times1 = [r.repair_seconds for r in results if r.category == 1 and r.repair_seconds]
    times2 = [r.repair_seconds for r in results if r.category == 2 and r.repair_seconds]
    u_stat = p_value = None
    if times1 and times2:
        from scipy import stats

        u_stat, p_value = stats.mannwhitneyu(times1, times2, alternative="two-sided")
        u_stat, p_value = float(u_stat), float(p_value)
    return Rq2Result(cat1, cat2, u_stat, p_value)


def render_rq2(result: Rq2Result) -> str:
    """Render the category summaries as a text table."""
    rows = []
    for summary in (result.cat1, result.cat2):
        mean_time = (
            f"{summary.mean_repair_seconds:.1f}"
            if summary.mean_repair_seconds is not None
            else "-"
        )
        rows.append(
            [
                f"Category {summary.category}",
                f"{summary.plausible}/{summary.total}",
                f"{summary.plausible_rate * 100:.1f}%",
                str(summary.correct),
                mean_time,
                f"{summary.mean_simulations:.0f}",
            ]
        )
    table = format_table(
        ["Category", "Plausible", "Rate", "Correct", "MeanTime(s)", "MeanSims"], rows
    )
    if result.p_value is not None:
        table += (
            f"\nMann-Whitney U on repair times: U={result.mannwhitney_u:.1f}, "
            f"p={result.p_value:.3f} (paper: p=0.373, not significant)"
        )
    return table


def main(preset: str = "quick") -> None:
    """Print RQ2."""
    from .common import PRESETS
    from .table3 import run_table3

    results = run_table3(PRESETS[preset])
    print("RQ2: performance by defect category")
    print(render_rq2(analyze_rq2(results)))


if __name__ == "__main__":  # pragma: no cover
    main()
