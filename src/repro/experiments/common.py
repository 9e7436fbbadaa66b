"""Shared infrastructure for the experiment harness.

Budgets: the paper ran population 5000 × 8 generations × 12 h per trial on
a commercial simulator.  The same algorithm runs here at laptop scale; the
three presets trade coverage for wall-clock time.  ``EXPERIMENTS.md``
records which preset produced the committed numbers.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from ..benchsuite import Scenario, load_scenario
from ..core.backend import mp_context
from ..core.config import RepairConfig
from ..core.engines import DEFAULT_ENGINE, get_engine
from ..obs.events import RepairEvent, TrialCompleted
from ..obs.observer import ObserverSet, RepairObserver

logger = logging.getLogger("repro.experiments")

T = TypeVar("T")

#: CI-sized preset: seconds per scenario.  A large generation-0 seed pool
#: matters more than generation count (the paper's population of 5000 means
#: most of its fast repairs surfaced in the first generations).
SMOKE = RepairConfig(
    population_size=120,
    max_generations=4,
    max_wall_seconds=90.0,
    max_fitness_evals=600,
    minimize_budget=64,
)

#: Default preset for the committed experiment numbers.
QUICK = RepairConfig(
    population_size=300,
    max_generations=8,
    max_wall_seconds=420.0,
    max_fitness_evals=4000,
    minimize_budget=128,
)

#: Overnight-style preset approximating the paper's budgets.
FULL = RepairConfig(
    population_size=1500,
    max_generations=8,
    max_wall_seconds=3600.0,
    max_fitness_evals=60000,
    minimize_budget=256,
)

PRESETS: dict[str, RepairConfig] = {"smoke": SMOKE, "quick": QUICK, "full": FULL}


@dataclass
class ScenarioResult:
    """Outcome of repairing one scenario (one Table 3 row)."""

    scenario_id: str
    project: str
    description: str
    category: int
    plausible: bool
    correct: bool
    repair_seconds: float | None
    fitness: float
    simulations: int
    generations: int
    edits: int
    paper_outcome: str
    seed: int
    best_fitness_history: list[float] = field(default_factory=list)
    repaired_source: str | None = None
    #: Unique candidate evaluations across the trials that ran — the
    #: deterministic budget counter (identical across backends, unlike
    #: ``simulations``, which counts actual simulator invocations).
    eval_sims: int = 0

    @property
    def outcome(self) -> str:
        if self.correct:
            return "correct"
        if self.plausible:
            return "plausible"
        return "none"


class SweepTotals:
    """Sums what a sweep's trials spent, read from their ``TrialCompleted``
    events (whose counters mirror ``RepairOutcome``), and passes every
    event on to ``forward``."""

    def __init__(self, forward: ObserverSet | None = None):
        self.trials = 0
        self.simulations = 0
        self.eval_sims = 0
        self._forward = forward

    def on_event(self, event: RepairEvent) -> None:
        """Add a finished trial's counters, then forward ``event``."""
        if isinstance(event, TrialCompleted):
            self.trials += 1
            self.simulations += event.simulations
            self.eval_sims += event.eval_sims
        if self._forward:
            self._forward.emit(event)


def run_scenario(
    scenario: Scenario,
    config: RepairConfig,
    observers: Sequence[RepairObserver] | None = None,
    *,
    seeds: tuple[int, ...] = (0, 1),
    engine: str = DEFAULT_ENGINE,
) -> ScenarioResult:
    """Run repair trials on one scenario (paper: 5 independent trials,
    stopping at the first plausible repair).

    This is the one driver every experiment funnels through.  It calls
    the registered runner of ``engine`` (:mod:`repro.core.engines`) with
    every seed; the runner's sweep (:func:`repro.core.harness.run_trials`)
    shares one evaluation backend across the trials, so with
    ``config.workers > 1`` the process pool is paid for once per
    scenario, not once per seed.  ``observers`` (repro.obs) see every
    trial's event stream; they never influence the search.  The row's
    ``simulations`` and ``eval_sims`` are totals over every trial that
    ran, read from the trials' ``TrialCompleted`` events.  An empty
    ``seeds`` raises ``ValueError``.
    """
    scaled = scenario.suggested_config(config)
    caller = observers if isinstance(observers, ObserverSet) else ObserverSet(observers)
    totals = SweepTotals(forward=caller)
    start = time.monotonic()
    chosen = get_engine(engine)(scenario.problem(), scaled, tuple(seeds), observers=[totals])
    correct = False
    if chosen.plausible and chosen.repaired_source is not None:
        correct = scenario.is_correct_repair(chosen.repaired_source)
    defect = scenario.defect
    return ScenarioResult(
        scenario_id=scenario.scenario_id,
        project=defect.project,
        description=defect.description,
        category=defect.category,
        plausible=chosen.plausible,
        correct=correct,
        repair_seconds=(time.monotonic() - start) if chosen.plausible else None,
        fitness=chosen.fitness,
        simulations=totals.simulations,
        generations=chosen.generations,
        edits=len(chosen.patch),
        paper_outcome=defect.paper_outcome,
        seed=chosen.seed,
        best_fitness_history=chosen.best_fitness_history,
        repaired_source=chosen.repaired_source,
        eval_sims=totals.eval_sims,
    )


def _scenario_worker(
    payload: tuple[str, RepairConfig, tuple[int, ...], str | None],
) -> ScenarioResult:
    # Module-level so multiprocessing pools can pickle it.  Observers are
    # generally not picklable, so the trace path travels instead and the
    # JSONL observer is constructed inside the worker.
    scenario_id, config, seeds, trace_path = payload
    observers: list[RepairObserver] = []
    if trace_path is not None:
        from ..obs import JsonlTraceObserver

        observers.append(JsonlTraceObserver(trace_path))
    try:
        return run_scenario(
            load_scenario(scenario_id), config, observers, seeds=seeds
        )
    finally:
        for observer in observers:
            observer.close()


def run_scenarios(
    scenario_ids: Iterable[str],
    config: RepairConfig,
    *,
    seeds: tuple[int, ...] = (0, 1),
    workers: int | None = None,
    trace_dir: "str | Path | None" = None,
) -> list[ScenarioResult]:
    """Run a sweep of scenarios, optionally fanned out over a pool.

    ``workers`` (default ``config.workers``) fans independent scenarios
    out over a process pool; each child then runs fully serially so pools
    never nest.  Row order and per-row results match the serial sweep
    exactly.  With ``trace_dir`` set, each scenario writes a repro.obs
    JSONL trace to ``trace_dir/<scenario_id>.jsonl`` (works in both the
    serial and the fanned-out path — workers reconstruct the observer
    from the path).
    """
    ids = list(scenario_ids)
    workers = config.workers if workers is None else workers
    fan_out = workers > 1 and len(ids) > 1
    child_config = config.scaled(workers=1) if fan_out else config
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    payloads = [
        (
            sid,
            child_config,
            seeds,
            str(trace_dir / f"{sid}.jsonl") if trace_dir is not None else None,
        )
        for sid in ids
    ]
    return map_parallel(_scenario_worker, payloads, workers if fan_out else 1)


def map_parallel(
    worker: Callable[[object], T],
    payloads: Sequence[object],
    workers: int,
) -> list[T]:
    """Order-preserving ``map`` over a process pool, with serial fallback.

    ``worker`` must be a module-level function so the pool can pickle it.
    With ``workers <= 1``, a single payload, or an unavailable pool, the
    map simply runs in-process.  Results are identical either way: each
    payload is independent and output order matches input order.
    """
    items = list(payloads)
    if workers <= 1 or len(items) <= 1:
        return [worker(p) for p in items]
    try:
        pool = mp_context().Pool(min(workers, len(items)))
    except (OSError, ValueError, ImportError) as exc:  # pragma: no cover
        logger.warning("worker pool unavailable (%s); running sweep serially", exc)
        return [worker(p) for p in items]
    try:
        return pool.map(worker, items, chunksize=1)
    finally:
        pool.terminate()
        pool.join()


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a fixed-width text table (the harness's output format)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
