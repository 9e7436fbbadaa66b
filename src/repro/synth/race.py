"""Differential engine racing (``engine="race"``).

Runs the GP engine and the template synthesiser on the *same* scenario
— same config, same seeds, one shared evaluation backend — and reports
which engine won: first to a plausible repair, ranked by the
deterministic ``eval_sims`` budget counter (never wall-clock, which
would break the bit-identical-outcome contract the registry demands of
every engine, ``race`` included).  Wall-clock per engine is still
*measured* and carried on each entry for reporting — it just never
influences the verdict.

:func:`race_repair` is the registered runner (returns the winning
outcome); :func:`run_race` returns the full per-engine result for the
``repro.experiments race`` driver and the race smoke.
"""

from __future__ import annotations

import time as time_mod
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..core.backend import EvaluationBackend
from ..core.config import RepairConfig
from ..core.engines import get_engine
from ..core.harness import RepairOutcome, RepairProblem, shared_backend
from ..obs.observer import RepairObserver

#: The engines a race pits against each other, in run order.
RACE_ENGINES: tuple[str, ...] = ("cirfix", "synth")


@dataclass
class RaceEntry:
    """One engine's leg of a race."""

    engine: str
    outcome: RepairOutcome
    #: Wall-clock of this engine's whole leg (reporting only — the
    #: verdict is decided on ``eval_sims``).
    wall_seconds: float

    def stable_dict(self) -> dict[str, Any]:
        """The backend-independent summary (no wall-clock fields)."""
        return {
            "engine": self.engine,
            "plausible": self.outcome.plausible,
            "fitness": round(self.outcome.fitness, 6),
            "eval_sims": self.outcome.eval_sims,
            "edits": len(self.outcome.patch),
            "generations": self.outcome.generations,
        }


@dataclass
class RaceResult:
    """Both engines' legs over one scenario, plus the verdict."""

    scenario: str
    entries: list[RaceEntry]

    @property
    def winner(self) -> RaceEntry:
        """Deterministic verdict: the plausible entry with the fewest
        ``eval_sims`` (engine name breaks exact ties); when neither is
        plausible, the best fitness wins, cheapest-then-name on ties."""
        plausible = [e for e in self.entries if e.outcome.plausible]
        pool = plausible or self.entries
        if not pool:
            raise ValueError("empty race")
        return min(
            pool,
            key=lambda e: (
                -e.outcome.fitness if not plausible else 0.0,
                e.outcome.eval_sims,
                e.engine,
            ),
        )

    def entry(self, engine: str) -> RaceEntry:
        """Return the named engine's leg (``KeyError`` if it never ran)."""
        for e in self.entries:
            if e.engine == engine:
                return e
        raise KeyError(engine)

    def stable_dict(self) -> dict[str, Any]:
        """Backend-independent summary of the whole race."""
        return {
            "scenario": self.scenario,
            "winner": self.winner.engine,
            "entries": [e.stable_dict() for e in self.entries],
        }


def run_race(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
    engines: tuple[str, ...] = RACE_ENGINES,
) -> RaceResult:
    """Run every engine in ``engines`` on ``problem`` and keep all legs.

    The engines run sequentially (deterministic event interleaving) and
    share one evaluation backend (``backend``, or one built and closed by
    :func:`~repro.core.harness.shared_backend`); observers see each
    engine's full trial telemetry back-to-back, in ``engines`` order.
    """
    config = config or RepairConfig()
    runners = [(name, get_engine(name)) for name in engines]
    entries: list[RaceEntry] = []
    with shared_backend(problem, config, backend) as shared:
        for name, runner in runners:
            started = time_mod.monotonic()
            outcome = runner(
                problem, config, seeds,
                backend=shared, observers=observers, cancel=cancel,
                checkpoint=checkpoint,
            )
            entries.append(
                RaceEntry(name, outcome, time_mod.monotonic() - started)
            )
    return RaceResult(problem.name, entries)


def race_repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
) -> RepairOutcome:
    """The registered ``"race"`` runner: race both engines, return the
    winning outcome (see :class:`RaceResult.winner` for the verdict).

    Both legs share one checkpoint sink; snapshots carry the engine
    name, so a resumed race replays the cirfix leg (warm) before
    re-entering the synth leg it was interrupted in, or vice versa.
    """
    return run_race(
        problem, config, seeds,
        backend=backend, observers=observers, cancel=cancel,
        checkpoint=checkpoint,
    ).winner.outcome


__all__ = ["RACE_ENGINES", "RaceEntry", "RaceResult", "race_repair", "run_race"]
