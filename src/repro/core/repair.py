"""The CirFix repair engine (paper §3, Algorithm 1).

Genetic-programming search over repair patches:

1. seed a population of empty patches (copies of the faulty design);
2. each reproduction step selects a parent by tournament, re-runs fault
   localization on *that parent's* own simulation trace (the paper
   re-localizes per variant to support dependent multi-edit repairs; the
   answer depends on the parent alone, so a parent that wins several
   tournaments in one generation is localized once), and produces
   children via a repair template (probability ``rtThreshold``),
   mutation (``mutThreshold``), or single-point crossover;
3. stop when a candidate reaches fitness 1.0 (plausible repair) or
   resources run out; minimize the winning patch with delta debugging.

Every new candidate evaluation regenerates Verilog source from the patched
AST (an edit list the trial already built reuses its text), reparses the
design, splices in the pre-parsed testbench, elaborates, and
simulates — mirroring the original pipeline (PyVerilog codegen → VCS
simulation), with our own frontend and simulator standing in for both.

The engine runs **generate-then-evaluate-batch**: each generation's
children are produced first (selection uses the previous generation's
already-known fitnesses, preserving Algorithm 1), then the whole batch is
scored through an :class:`~repro.core.backend.EvaluationBackend` — serially
by default, or on a persistent process pool with ``config.workers > 1``.
Work is assigned in child-index order so outcomes are seed-deterministic
regardless of backend (see ``docs/repair_engine.md``).

The engine-neutral machinery (the trial frame around the search, the
seed sweep, candidate evaluation, lint gate, batched backend scoring,
localization, minimization, outcome assembly) lives in
:mod:`repro.core.harness`; this module holds only the GP search loop.
"""

from __future__ import annotations

import hashlib
import logging
import random
from typing import Any, Callable, Sequence

from ..obs.observer import RepairObserver
from .backend import EvaluationBackend
# Unused here: backends are built by harness.make_backend.  The name is
# kept only so perfbench/spans.py, which wraps it here, does not fail.
from .backend import make_backend  # noqa: F401
from .config import RepairConfig
from .harness import (
    EngineHarness,
    Evaluation,
    RepairOutcome,
    RepairProblem,
    best_of,
    run_trials,
)
# Called through this module, so perfbench/spans.py can wrap them here.
from .operators import apply_fix_pattern, crossover, mutate
from .patch import Patch
from .selection import elite, tournament_select

#: Engine progress log (the artifact's ``repair_logs``): enable with
#: ``logging.getLogger("repro.repair").setLevel(logging.INFO)``.
logger = logging.getLogger("repro.repair")


class CirFixEngine(EngineHarness):
    """Runs Algorithm 1's search for one defect scenario and one seed.

    Candidate batches are scored through an
    :class:`~repro.core.backend.EvaluationBackend`; pass one to share a
    worker pool across trials, or leave it ``None`` to let the engine
    build (and own) the backend selected by ``config``.
    """

    engine_name = "cirfix"
    log = logger
    #: The trial's GP random stream, seeded when the search starts.
    rng: random.Random

    def _rng_digest(self) -> str:
        """Stable digest of the GP random stream's current position."""
        return hashlib.sha256(
            repr(self.rng.getstate()).encode()
        ).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1)
    # ------------------------------------------------------------------

    def _search(
        self,
        original: Patch,
        original_eval: Evaluation,
        history: list[float],
        out_of_budget: Callable[[], bool],
    ) -> tuple[Patch | None, Patch, int]:
        """Seed the population, then evolve it generation by generation."""
        config = self.config
        self.rng = random.Random(self.seed)
        self.operator_stats = {"template": 0, "mutation": 0, "crossover": 0}

        def fitness_of(patch: Patch) -> float:
            # Memoised on the patch object itself (ids are recycled by the
            # allocator, so an id-keyed dict would alias dead patches).
            cached = getattr(patch, "_fitness", None)
            if cached is None:
                cached = self.evaluate(patch).fitness
                patch._fitness = cached  # type: ignore[attr-defined]
            return cached

        best_patch, best_fitness = original, original_eval.fitness
        generations = 0
        winner: Patch | None = None

        # seed_popn (Algorithm 1 line 1): the original plus single-edit
        # variants localized against the original's own fault set — the
        # GenProg-family convention, which keeps generation 0 diverse.
        # Children are generated first, then the whole batch is scored
        # through the backend in child-index order.
        population: list[Patch] = [original]
        seed_variant, seed_faults = self.localized_variant(original)
        seedlings: list[Patch] = []
        while len(population) + len(seedlings) < config.population_size and not out_of_budget():
            if self.rng.random() <= config.rt_threshold:
                self.operator_stats["template"] += 1
                seedling = apply_fix_pattern(
                    original, seed_variant, seed_faults, self.rng,
                    extended=config.extended_templates,
                )
            else:
                self.operator_stats["mutation"] += 1
                seedling = mutate(
                    original,
                    seed_variant,
                    seed_faults,
                    self.rng,
                    config.delete_threshold,
                    config.insert_threshold,
                )
            seedlings.append(seedling)
        population.extend(seedlings)
        for seedling, evaluation in zip(
            seedlings, self._evaluate_generation(seedlings, out_of_budget)
        ):
            if evaluation is None:
                continue  # early stop: budget exhausted or winner already seen
            seedling._fitness = evaluation.fitness  # type: ignore[attr-defined]
            if evaluation.fitness > best_fitness:
                best_fitness, best_patch = evaluation.fitness, seedling
            if evaluation.fitness >= 1.0:
                winner = seedling
                break
        history.append(best_fitness)
        if self.events:
            self.events.emit(self._generation_event(0, population, best_fitness))
        self._save_checkpoint(0, best_fitness)

        while generations < config.max_generations and winner is None and not out_of_budget():
            generations += 1
            children: list[Patch] = elite(
                population, fitness_of, config.elitism_fraction
            )
            # Generate the full generation first: tournament selection and
            # re-localization only consult the previous population's known
            # fitnesses, so deferring evaluation preserves Algorithm 1.
            offspring: list[Patch] = []
            while len(children) + len(offspring) < config.population_size and not out_of_budget():
                parent = tournament_select(
                    population, fitness_of, self.rng, config.tournament_size
                )
                variant, fault_ids = self.localized_variant(parent)
                if self.rng.random() <= config.rt_threshold:
                    self.operator_stats["template"] += 1
                    child = apply_fix_pattern(
                        parent, variant, fault_ids, self.rng,
                        extended=config.extended_templates,
                    )
                    new_children = [child]
                elif self.rng.random() <= config.mut_threshold:
                    self.operator_stats["mutation"] += 1
                    child = mutate(
                        parent,
                        variant,
                        fault_ids,
                        self.rng,
                        config.delete_threshold,
                        config.insert_threshold,
                    )
                    new_children = [child]
                else:
                    self.operator_stats["crossover"] += 1
                    parent2 = tournament_select(
                        population, fitness_of, self.rng, config.tournament_size
                    )
                    child1, child2 = crossover(parent, parent2, self.rng)
                    new_children = [child1, child2]
                offspring.extend(new_children)
            children.extend(offspring)
            for child, evaluation in zip(
                offspring, self._evaluate_generation(offspring, out_of_budget)
            ):
                if evaluation is None:
                    continue  # early stop: budget exhausted or winner already seen
                child._fitness = evaluation.fitness  # type: ignore[attr-defined]
                if evaluation.fitness > best_fitness:
                    best_fitness, best_patch = evaluation.fitness, child
                if evaluation.fitness >= 1.0:
                    winner = child
                    break
            population = children or population
            history.append(best_fitness)
            if self.events:
                self.events.emit(
                    self._generation_event(generations, population, best_fitness)
                )
            self._save_checkpoint(generations, best_fitness)
            logger.info(
                "[%s seed=%d] gen %d: best=%.4f sims=%d best_patch=%s",
                self.problem.name, self.seed, generations, best_fitness,
                self.simulations, best_patch.describe()[:80],
            )

        return winner, best_patch, generations


def repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
) -> RepairOutcome:
    """Run independent trials (paper: 5 per scenario) and return the first
    plausible outcome, or the earliest best-fitness outcome if none
    succeeds — :func:`~repro.core.harness.best_of` over
    :func:`~repro.core.harness.run_trials`, which documents the sweep:
    one shared backend (with ``config.workers > 1``, one supervised pool
    for every trial), observers on every trial, and ``cancel`` polled
    between trials.  Raises ``ValueError`` for an empty ``seeds``.
    """
    return best_of(run_trials(
        CirFixEngine, problem, config, seeds, backend=backend,
        observers=observers, cancel=cancel, checkpoint=checkpoint,
    ))
