"""The template-synthesis repair engine (``engine="synth"``).

Where the GP engine *evolves* patches, this engine *solves* them: it
enumerates the rtl-repair template catalog (:mod:`repro.synth.templates`)
over the fault-localized region of the design, expands each template's
free choices into small deterministic domains against the instrumented
testbench trace (:mod:`repro.synth.solver`), and scores the surviving
instantiations through the shared harness — so the evaluation cache,
lint gate, supervision, and telemetry apply exactly as they do for GP.

Contract (same as every engine behind the registry):

- **Deterministic**: the search uses no randomness at all — the seed is
  only recorded in the outcome.  Same scenario → bit-identical
  ``RepairOutcome`` on any backend, with or without observers.
- **Cooperative cancel**: polled at chunk boundaries via the shared
  budget probe.
- **Budgeted**: ``eval_sims`` ticks once per unique candidate, so
  ``config.max_fitness_evals`` bounds the solve exactly like a GP run.

The trial frame around the search — scoring the faulty design,
minimizing a plausible winner, the outcome — is the harness's
(:meth:`~repro.core.harness.EngineHarness._run`); this engine supplies
only :meth:`SynthEngine._search`.  Template rounds map onto the
harness's generation machinery: each round is one batched
:meth:`~repro.core.harness.EngineHarness._evaluate_generation` call,
emitting the familiar chunk/generation events plus the
synth-specific :class:`~repro.obs.events.SynthTemplateEnumerated` /
:class:`~repro.obs.events.SynthSolveCompleted` lifecycle events.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Sequence

from ..core.backend import EvaluationBackend
# Unused here: backends are built by harness.make_backend.  The name is
# kept only so perfbench/spans.py, which wraps it here, does not fail.
from ..core.backend import make_backend  # noqa: F401
from ..core.config import RepairConfig
from ..core.harness import (
    EngineHarness,
    Evaluation,
    RepairOutcome,
    RepairProblem,
    best_of,
    run_trials,
)
from ..core.patch import Patch
from ..hdl import ast
from ..instrument.trace import output_mismatch
from ..obs.events import SynthSolveCompleted, SynthTemplateEnumerated
from ..obs.observer import RepairObserver
from .solver import SolveContext, fault_scope_ids, mine_literals
from .templates import TEMPLATES, Candidate

logger = logging.getLogger("repro.synth")


class SynthEngine(EngineHarness):
    """One template-solving trial over one defect scenario.

    The ``seed`` parameter exists only to satisfy the engine contract
    (it is recorded in the outcome); the search itself is derandomized.
    """

    engine_name = "synth"
    log = logger
    #: (rounds, candidates, winner template) of the finished search.
    _solve: tuple[int, int, str]

    # ------------------------------------------------------------------
    # Solve context
    # ------------------------------------------------------------------

    def _solve_context(self, design: ast.Source, faults: "set[int]") -> SolveContext:
        """Build the deterministic context templates solve against."""
        baseline = self.evaluate(Patch.empty())
        mismatch: set[str] = set()
        if baseline.trace is not None:
            mismatch = output_mismatch(self.problem.oracle, baseline.trace)
        suspects: dict[str, None] = {name: None for name in sorted(mismatch)}
        for fault_id in sorted(faults):
            node = design.find(fault_id)
            if node is None:
                continue
            for sub in node.walk():
                if isinstance(sub, ast.Identifier):
                    suspects.setdefault(sub.name)
        return SolveContext(
            fault_scope=fault_scope_ids(design, faults),
            mismatch=tuple(sorted(mismatch)),
            literal_pool=mine_literals(self.problem.oracle, mismatch),
            suspect_names=tuple(suspects),
        )

    # ------------------------------------------------------------------
    # Main loop: one batched round per template, early-stop on a winner
    # ------------------------------------------------------------------

    def _search(
        self,
        original: Patch,
        original_eval: Evaluation,
        history: list[float],
        out_of_budget: Callable[[], bool],
    ) -> tuple[Patch | None, Patch, int]:
        """Localize once, then score one batched round per template."""
        self.operator_stats = {template.name: 0 for template in TEMPLATES}
        variant, faults = self.localized_variant(original)
        ctx = self._solve_context(variant, faults)

        best_patch, best_fitness = original, original_eval.fitness
        rounds = 0
        total_candidates = 0
        winner: Patch | None = None
        winner_template = ""
        for template in TEMPLATES:
            if winner is not None or out_of_budget():
                break
            candidates: list[Candidate] = template.instantiate(variant, ctx)
            self.operator_stats[template.name] += len(candidates)
            total_candidates += len(candidates)
            if self.events:
                self.events.emit(
                    SynthTemplateEnumerated(
                        template=template.name,
                        sites=len({c.site for c in candidates}),
                        candidates=len(candidates),
                    )
                )
            if not candidates:
                continue
            rounds += 1
            patches = [candidate.patch for candidate in candidates]
            for patch, evaluation in zip(
                patches, self._evaluate_generation(patches, out_of_budget)
            ):
                if evaluation is None:
                    continue  # early stop: budget exhausted or winner already seen
                patch._fitness = evaluation.fitness  # type: ignore[attr-defined]
                if evaluation.fitness > best_fitness:
                    best_fitness, best_patch = evaluation.fitness, patch
                if evaluation.fitness >= 1.0:
                    winner = patch
                    winner_template = template.name
                    break
            history.append(best_fitness)
            if self.events:
                self.events.emit(
                    self._generation_event(rounds - 1, patches, best_fitness)
                )
            # Template boundary = the synth engine's checkpoint boundary.
            self._save_checkpoint(rounds - 1, best_fitness, label=template.name)
            logger.info(
                "[%s] template %s: %d candidates, best=%.4f",
                self.problem.name, template.name, len(candidates), best_fitness,
            )
        self._solve = (rounds, total_candidates, winner_template)
        return winner, best_patch, rounds

    def _search_completed(self, final_eval: Evaluation) -> None:
        """Close the solve with its summary event (after minimization)."""
        rounds, candidates, winner_template = self._solve
        if self.events:
            self.events.emit(
                SynthSolveCompleted(
                    templates=rounds,
                    candidates=candidates,
                    winner_template=winner_template,
                    plausible=final_eval.is_plausible,
                )
            )


def synth_repair(
    problem: RepairProblem,
    config: RepairConfig | None = None,
    seeds: tuple[int, ...] = (0,),
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
) -> RepairOutcome:
    """The registered ``"synth"`` runner (engine-registry contract).

    The synth search is fully derandomized, so every seed in ``seeds``
    would replay the identical trial; exactly one trial runs, stamped
    with ``seeds[0]``, through :func:`~repro.core.harness.run_trials`
    (so an empty ``seeds`` raises ``ValueError`` as for every engine).
    The multi-seed signature is kept so the runner is drop-in
    interchangeable with :func:`repro.core.repair.repair`.
    """
    return best_of(run_trials(
        SynthEngine, problem, config, seeds[:1], backend=backend,
        observers=observers, cancel=cancel, checkpoint=checkpoint,
    ))


__all__ = ["SynthEngine", "synth_repair"]
