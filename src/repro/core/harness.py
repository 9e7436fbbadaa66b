"""Engine-neutral repair harness shared by every registered engine.

The GP engine (:mod:`repro.core.repair`) and the template-synthesis
engine (:mod:`repro.synth.engine`) differ only in how they *propose*
candidate patches.  Everything else — the trial frame (score the faulty
design, search, minimize a plausible winner), candidate evaluation with
memoisation, the lint gate, batched scoring through an
:class:`~repro.core.backend.EvaluationBackend`, fault localization with
trace refresh, delta-debugging minimization, phase accounting, and the
final :class:`RepairOutcome` assembly — lives here in
:class:`EngineHarness`, so caching, supervision, gating, and telemetry
apply to every engine unchanged.  The seed sweep around the trials is
here too: :func:`run_trials` runs one trial per seed on a shared
backend, and :func:`best_of` picks the sweep's outcome.

Determinism contract (shared by all engines built on the harness): the
outcome for a given seed is bit-identical on every backend; the
``eval_sims`` budget counter excludes backend-dependent re-simulations;
observers only ever read already-computed values; cancellation is polled
at chunk boundaries.  See ``docs/repair_engine.md``.
"""

from __future__ import annotations

import contextlib
import logging
import time as time_mod
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from ..hdl import ast, generate, parse
from ..instrument.trace import SimulationTrace, output_mismatch
from ..lint.engine import lint_tree, new_violations
from ..lint.rules import resolve_rules
from ..obs.events import (
    BackendChunkCompleted,
    BackendChunkDispatched,
    CandidateEvaluated,
    CandidatePruned,
    CandidateTimedOut,
    CheckpointSaved,
    ChunkRetried,
    GenerationCompleted,
    PhaseCompleted,
    PlausiblePatchFound,
    TrialCompleted,
    TrialStarted,
    WorkerCrashed,
)
from ..obs.observer import ObserverSet, RepairObserver
from .backend import (
    CandidateResult,
    EvalCache,
    EvaluationBackend,
    evaluate_design_text,
    make_backend,
)
from .config import BACKEND_NAMES, RepairConfig
from .faultloc import all_statement_ids, localize_faults
from .fitness import FitnessBreakdown
from .minimize import minimize_patch
from .patch import Patch

logger = logging.getLogger("repro.harness")


@dataclass
class Evaluation:
    """Result of evaluating one candidate design.

    ``trace`` is None when the backend's memo no longer holds it (it keeps
    the traces of the most recently used candidates only — traces of
    long-running benchmarks are large, and only tournament-selected
    parents need theirs again, for re-localization) and for pool results.
    """

    fitness: float
    breakdown: FitnessBreakdown | None
    trace: SimulationTrace | None
    compiled: bool
    source_text: str

    @property
    def is_plausible(self) -> bool:
        return self.fitness >= 1.0

    @staticmethod
    def of(design_text: str, result: CandidateResult) -> "Evaluation":
        """The evaluation of ``design_text`` that ``result`` records."""
        return Evaluation(
            result.fitness, result.breakdown, result.trace, result.compiled, design_text
        )


@dataclass
class RepairOutcome:
    """Result of one repair trial (any engine)."""

    plausible: bool
    patch: Patch
    fitness: float
    repaired_source: str | None
    generations: int
    fitness_evals: int
    simulations: int
    elapsed_seconds: float
    best_fitness_history: list[float] = field(default_factory=list)
    seed: int = 0
    #: Unique candidate evaluations — the deterministic budget counter
    #: (identical across backends, unlike ``simulations``).
    eval_sims: int = 0
    #: Unique candidates the lint gate rejected before simulation
    #: (0 when ``config.lint_gate`` is off).
    pruned: int = 0
    #: Candidates the supervised pool quarantined after exhausting their
    #: retries (0 on healthy runs and on the serial backend).
    quarantined: int = 0

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        status = "PLAUSIBLE" if self.plausible else "no repair"
        return (
            f"{status}: fitness={self.fitness:.3f} edits={len(self.patch)} "
            f"gens={self.generations} sims={self.simulations} "
            f"t={self.elapsed_seconds:.1f}s"
        )


class RepairProblem:
    """A defect scenario packaged for the engine.

    Attributes:
        design: Faulty design AST (the modules the engine may edit).
        testbench: Instrumented testbench AST (never edited).
        oracle: Expected-behaviour trace from the golden design.
    """

    def __init__(
        self,
        design: ast.Source,
        testbench: ast.Source,
        oracle: SimulationTrace,
        name: str = "scenario",
    ):
        self.design = design
        self.testbench = testbench
        self.oracle = oracle
        self.name = name
        self.testbench_text = generate(testbench)

    @staticmethod
    def from_text(
        faulty_design: str,
        testbench: str,
        oracle: SimulationTrace,
        name: str = "scenario",
    ) -> "RepairProblem":
        return RepairProblem(parse(faulty_design), parse(testbench), oracle, name)


def adaptive_chunk_size(batch: int, eval_chunk_size: int) -> int:
    """The chunk size to dispatch a ``batch`` of pending candidates with.

    ``eval_chunk_size`` is the *granularity floor*, not a fixed size: a
    batch that is not an exact multiple would otherwise end in a runt
    chunk (e.g. 25 pending at size 8 → 8+8+8+1), paying a full dispatch
    round-trip — and, on the pool backend, idling most workers — for a
    single candidate.  Instead the batch is split into
    ``batch // eval_chunk_size`` near-equal chunks (25 → 9+9+7).

    Deterministic in the batch size and configuration alone — NEVER the
    worker count or backend — so the chunk schedule (and with it the
    event sequence and early-stop points) stays bit-identical across
    backends, preserving the engine's determinism guarantee.
    """
    base = max(1, eval_chunk_size)
    if batch <= base:
        return base
    chunks = max(1, batch // base)
    return -(-batch // chunks)


class EngineHarness:
    """The trial frame, shared pre-passes and accounting for any engine.

    :meth:`run` drives one trial through the same frame for every engine
    (:meth:`_run`); subclasses implement only :meth:`_search` (the search
    loop, which sets ``operator_stats`` to how it proposes candidates).
    Everything a loop needs — memoised evaluation, batched backend
    scoring, localization, minimization, the outcome — is provided here.

    Candidate batches are scored through an
    :class:`~repro.core.backend.EvaluationBackend`; pass one to share a
    worker pool and its memo across trials, or leave it ``None`` to let
    the engine build (and own) the backend selected by ``config``.
    Evaluation results live in the backend's memo
    (:class:`~repro.core.backend.EvalCache`); the trial itself keeps only
    the set of candidate texts it has scored.
    """

    #: Registry name stamped into checkpoint snapshots (subclasses set it).
    engine_name = "engine"
    #: Progress logger of the trial frame (subclasses set their own).
    log = logger

    def __init__(
        self,
        problem: RepairProblem,
        config: RepairConfig | None = None,
        seed: int = 0,
        backend: EvaluationBackend | None = None,
        observers: Sequence[RepairObserver] | None = None,
        cancel: Callable[[], bool] | None = None,
        checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
    ):
        self.problem = problem
        self.config = config or RepairConfig()
        self.seed = seed
        #: Cooperative cancellation probe (repair-as-a-service): checked
        #: wherever the budget is, so a cancelled trial stops at the next
        #: chunk boundary and returns its best-so-far outcome.  None (the
        #: default) keeps every cancellation branch dead.
        self._cancel = cancel
        #: Crash-recovery hook (repair-as-a-service): called with a
        #: deterministic cursor snapshot at every search boundary (see
        #: :meth:`_save_checkpoint`).  None (the default) keeps every
        #: checkpoint branch dead — direct runs never emit checkpoint
        #: events, so golden traces are untouched.
        self._checkpoint = checkpoint
        #: Telemetry fan-out (repro.obs).  Falsy when no observers are
        #: attached, so every emit site costs one branch on unobserved
        #: runs; observers only ever read already-computed values, which
        #: is what keeps outcomes bit-identical with or without them.
        self.events = (
            observers
            if isinstance(observers, ObserverSet)
            else ObserverSet(observers)
        )
        self._backend = backend
        self._owns_backend = False
        #: The backend's evaluation memo; it outlives an owned backend's
        #: close, so the trial can still look up what it scored.
        self._memo: EvalCache | None = backend.cache if backend is not None else None
        #: Candidate texts this trial has scored (``eval_sims`` counts
        #: them), and the subset with no memo record because the lint gate
        #: pruned them or the pool quarantined them (they score 0.0).
        self._seen: set[str] = set()
        self._unscored: set[str] = set()
        self.simulations = 0
        self.fitness_evals = 0
        #: Deterministic count of unique candidate evaluations.  Unlike
        #: ``simulations`` it excludes trace-refresh re-simulations (whose
        #: number depends on the backend's trace availability), so budget
        #: decisions keyed on it are identical under every backend.
        self.eval_sims = 0
        #: How often each proposal path ran (diagnostics); subclasses
        #: replace this with their own operator vocabulary.
        self.operator_stats: dict[str, int] = {}
        #: Wall-clock seconds spent inside candidate evaluation (codegen +
        #: parse + simulate + fitness).  The CirFix paper puts fitness
        #: evaluation above 90% of repair time; ROADMAP.md measures about
        #: 50% here on the compiled engine.
        self.evaluation_seconds = 0.0
        #: Per-phase wall-clock (repro.obs): ``parse`` is the frontend
        #: sub-span of ``evaluation``; ``localization`` and
        #: ``minimization`` exclude the evaluations they trigger, so the
        #: three top-level phases partition the trial's accounted time.
        self.phase_seconds: dict[str, float] = {
            "parse": 0.0,
            "localization": 0.0,
            "evaluation": 0.0,
            "minimization": 0.0,
        }
        #: Monotonic id for backend chunk events.
        self._chunk_counter = 0
        #: Lint gate (docs/lint.md): with ``config.lint_gate`` on, a
        #: candidate whose lint profile adds findings under these rules
        #: over the buggy baseline is rejected before simulation.  The
        #: empty tuple (gate off) keeps every gate branch dead, so
        #: outcomes are bit-identical to the ungated engine.
        self._gate_rules = (
            resolve_rules(self.config.lint_gate_rules)
            if self.config.lint_gate
            else ()
        )
        self._gate_rules_spec = ",".join(rule.code for rule in self._gate_rules)
        self._gate_baseline: dict[str, int] | None = None
        #: Unique candidates the gate rejected / per-rule breakdown.
        self.candidates_pruned = 0
        self.pruned_by_rule: dict[str, int] = {}
        #: Candidates the supervised pool quarantined / per-kind breakdown
        #: (see ``docs/repair_engine.md``, "Fault tolerance").
        self.candidates_quarantined = 0
        self.quarantined_by_kind: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------

    def variant_tree(self, patch: Patch) -> ast.Source:
        """The faulty design with ``patch`` applied (ids stable)."""
        return patch.apply(self.problem.design)

    def evaluate(self, patch: Patch) -> Evaluation:
        """Codegen → memo → parse → simulate → fitness, in-process.

        Reads and writes only the memory tier of the backend's memo, and
        never starts a worker pool.
        """
        self.fitness_evals += 1
        try:
            tree = self.variant_tree(patch)
            design_text = generate(tree)
        except Exception:
            return Evaluation(0.0, None, None, False, "")
        if design_text in self._seen:
            return self._recall(design_text)
        if self._gate_rules:
            added = self._gate_added(tree)
            if added:
                return self._prune(design_text, added)
        memo = self._ensure_memo()
        result = memo.lookup(design_text)
        if result is None:
            result = self._simulate(design_text)
            memo.remember(design_text, result)
        return self._scored(design_text, result)

    # ------------------------------------------------------------------
    # Lint gate (docs/lint.md)
    # ------------------------------------------------------------------

    def _gate_baseline_profile(self) -> dict[str, int]:
        """Gated-rule lint profile of the buggy design (computed once)."""
        if self._gate_baseline is None:
            self._gate_baseline = lint_tree(
                self.problem.design, self._gate_rules
            ).profile()
        return self._gate_baseline

    def _gate_added(self, tree: ast.Source) -> dict[str, int]:
        """Gated violations ``tree`` adds over the baseline (empty = pass).

        Lint failures never block evaluation: a candidate the analyser
        cannot process goes to the simulator like any other, so the gate
        can only ever skip work, not change which designs are reachable.
        """
        try:
            profile = lint_tree(tree, self._gate_rules).profile()
        except Exception:
            return {}
        return new_violations(profile, self._gate_baseline_profile())

    def _prune(self, design_text: str, added: dict[str, int]) -> Evaluation:
        """Reject one unique candidate before simulation.

        The trial remembers the pruned text, so its duplicates score the
        same 0.0 without another lint pass; ``eval_sims`` never ticks —
        pruning is free simulation budget.
        """
        self._seen.add(design_text)
        self._unscored.add(design_text)
        self.candidates_pruned += 1
        for code in added:
            self.pruned_by_rule[code] = self.pruned_by_rule.get(code, 0) + 1
        if self.events:
            self.events.emit(
                CandidatePruned(
                    new_violations=dict(added), rules=self._gate_rules_spec
                )
            )
        return Evaluation(0.0, None, None, False, design_text)

    # ------------------------------------------------------------------
    # The trial's view of the memo
    # ------------------------------------------------------------------

    def _ensure_memo(self) -> EvalCache:
        """The backend's memo (building the backend, never its workers)."""
        if self._memo is None:
            self._ensure_backend()
        assert self._memo is not None
        return self._memo

    def _recall(self, design_text: str) -> Evaluation:
        """A candidate this trial already scored (no counters tick)."""
        if design_text in self._unscored:
            return Evaluation(0.0, None, None, False, design_text)
        result = self._ensure_memo().recall(design_text)
        assert result is not None, "scored candidates keep a memo record"
        return Evaluation.of(design_text, result)

    def _scored(self, design_text: str, result: CandidateResult) -> Evaluation:
        """Account for one unique candidate, computed or replayed."""
        self._seen.add(design_text)
        self.simulations += 1
        self.eval_sims += 1
        if result.failure is not None:
            # Quarantined by the supervisor: never stored in the memo.
            self._unscored.add(design_text)
            self.candidates_quarantined += 1
            self.quarantined_by_kind[result.failure.kind] = (
                self.quarantined_by_kind.get(result.failure.kind, 0) + 1
            )
        self.phase_seconds["parse"] += result.parse_seconds
        if self.events:
            self._emit_candidate(result)
        return Evaluation.of(design_text, result)

    def _simulate(self, design_text: str) -> CandidateResult:
        """Run the evaluation pipeline in-process (evaluation time)."""
        started = time_mod.monotonic()
        result = evaluate_design_text(
            design_text, self.problem.testbench, self.problem.oracle, self.config
        )
        elapsed = time_mod.monotonic() - started
        self.evaluation_seconds += elapsed
        self.phase_seconds["evaluation"] += elapsed
        return result

    def _refresh(self, design_text: str) -> Evaluation:
        """Re-simulate a scored candidate whose trace the memo dropped.

        The refresh counts in ``simulations`` but emits nothing: how often
        it happens depends on the backend's trace availability, so it must
        stay invisible to observers for the event sequence to be
        identical on every backend.
        """
        result = self._simulate(design_text)
        self.simulations += 1
        self.phase_seconds["parse"] += result.parse_seconds
        self._ensure_memo().remember(design_text, result)
        return Evaluation.of(design_text, result)

    def _emit_candidate(self, result: CandidateResult) -> None:
        """Emit the CandidateEvaluated event for one unique evaluation."""
        self.events.emit(
            CandidateEvaluated(
                fitness=result.fitness,
                compiled=result.compiled,
                wall_seconds=result.eval_seconds,
                sim_events=result.sim_events,
                sim_steps=result.sim_steps,
            )
        )

    # ------------------------------------------------------------------
    # Batched evaluation (generate-then-evaluate)
    # ------------------------------------------------------------------

    def _ensure_backend(self) -> EvaluationBackend:
        """The engine's backend, building (and owning) one on first use."""
        if self._backend is None:
            self._backend = make_backend(self.problem, self.config)
            self._owns_backend = True
            self._memo = self._backend.cache
        return self._backend

    def _release_backend(self) -> None:
        """Close the backend if this engine created it."""
        if self._owns_backend and self._backend is not None:
            self._backend.close()
            self._backend = None
            self._owns_backend = False

    def _evaluate_generation(self, patches, out_of_budget) -> list[Evaluation | None]:
        """Score a whole generation's patches through the backend.

        Returns evaluations aligned with ``patches``.  Design texts new to
        this trial are submitted in first-occurrence (child-index) order
        in near-equal chunks sized by :func:`adaptive_chunk_size` (with
        ``config.eval_chunk_size`` as the granularity floor); between chunks
        the engine checks the budget and whether a plausible candidate has
        already appeared, and stops early if so.  Entries that were never
        evaluated because of an early stop are ``None`` — callers only see
        them when the search is about to terminate anyway.  The chunk
        schedule is independent of the backend and worker count, which is
        what makes outcomes bit-identical across backends.
        """
        results: list[Evaluation | None] = [None] * len(patches)
        pending: list[str] = []
        indices_for_text: dict[str, list[int]] = {}
        for i, patch in enumerate(patches):
            self.fitness_evals += 1
            try:
                tree = self.variant_tree(patch)
                text = generate(tree)
            except Exception:
                results[i] = Evaluation(0.0, None, None, False, "")
                continue
            if text in self._seen:
                results[i] = self._recall(text)
                continue
            if self._gate_rules:
                added = self._gate_added(tree)
                if added:
                    # Pruned engine-side before chunking, so the prune
                    # schedule (and its events) is backend-independent.
                    results[i] = self._prune(text, added)
                    continue
            slots = indices_for_text.setdefault(text, [])
            if not slots:
                pending.append(text)
            slots.append(i)
        backend = self._ensure_backend()
        chunk_size = adaptive_chunk_size(len(pending), self.config.eval_chunk_size)
        found_winner = False
        for start in range(0, len(pending), chunk_size):
            if found_winner or out_of_budget():
                break
            chunk = pending[start : start + chunk_size]
            chunk_id = self._chunk_counter
            self._chunk_counter += 1
            if self.events:
                self.events.emit(
                    BackendChunkDispatched(
                        chunk=chunk_id, size=len(chunk), chunk_size=chunk_size
                    )
                )
            started = time_mod.monotonic()
            chunk_results = backend.evaluate_batch(chunk)
            chunk_seconds = time_mod.monotonic() - started
            self.evaluation_seconds += chunk_seconds
            self.phase_seconds["evaluation"] += chunk_seconds
            if self.events:
                self.events.emit(
                    BackendChunkCompleted(
                        chunk=chunk_id, size=len(chunk), wall_seconds=chunk_seconds
                    )
                )
            self._note_incidents(chunk_id, backend)
            for text, result in zip(chunk, chunk_results):
                evaluation = self._scored(text, result)
                for index in indices_for_text[text]:
                    results[index] = evaluation
                if evaluation.fitness >= 1.0:
                    found_winner = True
        return results

    def _note_incidents(self, chunk_id: int, backend: EvaluationBackend) -> None:
        """Drain supervision incidents for one chunk into events.

        Healthy runs never have incidents, so this is a no-op on the
        deterministic schedule — golden event sequences are untouched.
        Quarantine *counters* are tallied from the results themselves
        (which also covers externally-owned backends); this method only
        produces the per-incident telemetry.
        """
        take = getattr(backend, "take_incidents", None)
        if take is None:
            return
        incidents = take()
        if not incidents or not self.events:
            return
        requeued = 0
        for incident in incidents:
            if not incident.quarantined:
                requeued += 1
            if incident.kind == "timeout":
                self.events.emit(
                    CandidateTimedOut(
                        deadline_seconds=self.config.eval_deadline_seconds,
                        attempt=incident.attempt,
                        quarantined=incident.quarantined,
                    )
                )
            else:
                self.events.emit(
                    WorkerCrashed(
                        kind=incident.kind,
                        exitcode=incident.exitcode,
                        attempt=incident.attempt,
                        quarantined=incident.quarantined,
                    )
                )
        if requeued:
            self.events.emit(ChunkRetried(chunk=chunk_id, requeued=requeued))

    # ------------------------------------------------------------------
    # Fault localization (paper Algorithm 2)
    # ------------------------------------------------------------------

    def fault_localization(self, patch: Patch, variant: ast.Source) -> set[int]:
        """Algorithm 2 against this variant's own simulation trace.

        The ``localization`` phase timer excludes the candidate
        evaluations this triggers (those are ``evaluation`` time).
        """
        started = time_mod.monotonic()
        eval_before = self.evaluation_seconds
        try:
            return self._fault_localization(patch, variant)
        finally:
            self.phase_seconds["localization"] += (
                time_mod.monotonic() - started
            ) - (self.evaluation_seconds - eval_before)

    def _fault_localization(self, patch: Patch, variant: ast.Source) -> set[int]:
        evaluation = self.evaluate(patch)
        if evaluation.breakdown is not None and evaluation.trace is None:
            # A pool result, or a trace the memo dropped: re-simulate.
            evaluation = self._refresh(evaluation.source_text)
        if evaluation.trace is None or not evaluation.compiled:
            return all_statement_ids(variant)
        mismatch = output_mismatch(self.problem.oracle, evaluation.trace)
        if not mismatch:
            return all_statement_ids(variant)
        localized = localize_faults(variant, mismatch)
        if not localized.nodes:
            return all_statement_ids(variant)
        return localized.nodes

    # ------------------------------------------------------------------
    # Trial scaffolding shared by every engine
    # ------------------------------------------------------------------

    def run(self) -> RepairOutcome:
        """Run the engine's search loop to completion and return the outcome."""
        try:
            return self._run()
        finally:
            self._release_backend()

    def _run(self) -> RepairOutcome:
        """The trial frame around :meth:`_search` (Algorithm 1's shell).

        Scores the faulty design (returning at once if it is already
        plausible), runs the engine's search, and minimizes a plausible
        winner before assembling the outcome.
        """
        config = self.config
        start = time_mod.monotonic()
        deadline = start + config.max_wall_seconds
        if self.events:
            self.events.emit(
                TrialStarted(
                    scenario=self.problem.name,
                    seed=self.seed,
                    backend=config.backend,
                    workers=config.workers,
                    population_size=config.population_size,
                    max_generations=config.max_generations,
                )
            )
        out_of_budget = self._budget_probe(deadline)

        original = Patch.empty()
        original_eval = self.evaluate(original)
        original._fitness = original_eval.fitness  # type: ignore[attr-defined]
        history = [original_eval.fitness]
        tag = f"[{self.problem.name} seed={self.seed}]"
        self.log.info(
            "%s start: fitness=%.4f popsize=%d",
            tag, original_eval.fitness, config.population_size,
        )
        if original_eval.is_plausible:
            # Nothing to repair (shouldn't happen for real defect scenarios).
            return self._finish(original, original_eval, 0, start, history)

        winner, best_patch, generations = self._search(
            original, original_eval, history, out_of_budget
        )
        final_patch = winner if winner is not None else best_patch
        final_eval = self.evaluate(final_patch)
        if winner is not None:
            if self.events:
                self.events.emit(
                    PlausiblePatchFound(
                        generation=generations,
                        fitness=final_eval.fitness,
                        edits=len(final_patch),
                    )
                )
            self.log.info(
                "%s plausible repair found (%d edits); minimizing",
                tag, len(final_patch),
            )
            final_patch = self._minimize(final_patch)
            final_eval = self.evaluate(final_patch)
            self.log.info(
                "%s minimized to %d edits: %s",
                tag, len(final_patch), final_patch.describe(),
            )
        self._search_completed(final_eval)
        return self._finish(final_patch, final_eval, generations, start, history)

    def _search(
        self,
        original: Patch,
        original_eval: Evaluation,
        history: list[float],
        out_of_budget: Callable[[], bool],
    ) -> tuple[Patch | None, Patch, int]:  # pragma: no cover - interface
        """The engine's search step: ``(winner, best_patch, generations)``.

        ``winner`` is the first plausible patch (None when the search
        ended without one), ``best_patch`` the best-fitness patch seen,
        and ``generations`` the search boundaries crossed.  The search
        appends the best fitness at each boundary to ``history``.
        """
        raise NotImplementedError("engines built on EngineHarness implement _search")

    def _search_completed(self, final_eval: Evaluation) -> None:
        """Called once the final patch is scored (and minimized); no-op."""

    def _budget_probe(self, deadline: float) -> Callable[[], bool]:
        """The shared out-of-budget predicate for one trial.

        Polls cancellation, the wall-clock deadline, and the deterministic
        ``eval_sims`` budget — in that order, so a cancelled trial stops
        even when the budget still has headroom.
        """

        def out_of_budget() -> bool:
            if self._cancel is not None and self._cancel():
                return True
            if time_mod.monotonic() > deadline:
                return True
            if (
                self.config.max_fitness_evals is not None
                and self.eval_sims >= self.config.max_fitness_evals
            ):
                return True
            return False

        return out_of_budget

    def _rng_digest(self) -> str:
        """Digest of the engine's random stream position ("" when none).

        Engines with internal randomness override this; the digest goes
        into checkpoint snapshots so a resumed replay can prove it
        reproduced the exact pre-crash stream position.
        """
        return ""

    def _save_checkpoint(self, cursor: int, best_fitness: float,
                         label: str = "") -> None:
        """Snapshot the deterministic engine cursor at a search boundary.

        Called after each generation (GP) / template round (synth).  The
        snapshot is a *cursor*, not a population dump: resume replays the
        search from the start with the persistent eval cache warm, so
        every pre-crash evaluation is a disk hit and reaching this cursor
        again costs cache lookups, not simulations — recovery cost is
        bounded by the one interrupted generation's uncached work.  The
        stored counters (``eval_sims``, rng digest) let the sink verify
        the replay crossed this exact state.

        A failing sink never breaks the search (crash-safety machinery
        must not introduce crashes); the failure is logged and the run
        continues un-journaled.
        """
        if self._checkpoint is None:
            return
        state: dict[str, Any] = {
            "engine": self.engine_name,
            "seed": self.seed,
            "cursor": cursor,
            "label": label,
            "eval_sims": self.eval_sims,
            "fitness_evals": self.fitness_evals,
            "best_fitness": best_fitness,
            "rng": self._rng_digest(),
        }
        try:
            self._checkpoint(state)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            logger.warning(
                "checkpoint sink failed at %s cursor %d (%s); continuing",
                self.engine_name, cursor, exc,
            )
        if self.events:
            self.events.emit(
                CheckpointSaved(
                    engine=self.engine_name,
                    seed=self.seed,
                    cursor=cursor,
                    eval_sims=self.eval_sims,
                    best_fitness=best_fitness,
                )
            )

    def _generation_event(self, generation: int, population: list[Patch],
                          best_fitness: float) -> GenerationCompleted:
        """Build the GenerationCompleted event from known fitnesses."""
        fitnesses = [
            f for f in (getattr(p, "_fitness", None) for p in population)
            if f is not None
        ]
        return GenerationCompleted(
            generation=generation,
            population=len(population),
            best_fitness=best_fitness,
            fitness_min=min(fitnesses, default=0.0),
            fitness_mean=(sum(fitnesses) / len(fitnesses)) if fitnesses else 0.0,
            fitness_max=max(fitnesses, default=0.0),
            eval_sims=self.eval_sims,
            operator_stats=dict(self.operator_stats),
        )

    def _minimize(self, patch: Patch) -> Patch:
        def is_plausible(candidate: Patch) -> bool:
            return self.evaluate(candidate).is_plausible

        started = time_mod.monotonic()
        eval_before = self.evaluation_seconds
        try:
            return minimize_patch(patch, is_plausible, self.config.minimize_budget)
        finally:
            # Like localization, the phase excludes its own evaluations.
            self.phase_seconds["minimization"] += (
                time_mod.monotonic() - started
            ) - (self.evaluation_seconds - eval_before)

    def _finish(
        self,
        patch: Patch,
        evaluation: Evaluation,
        generations: int,
        start: float,
        history: list[float],
    ) -> RepairOutcome:
        outcome = RepairOutcome(
            plausible=evaluation.is_plausible,
            patch=patch,
            fitness=evaluation.fitness,
            repaired_source=evaluation.source_text if evaluation.is_plausible else None,
            generations=generations,
            fitness_evals=self.fitness_evals,
            simulations=self.simulations,
            elapsed_seconds=time_mod.monotonic() - start,
            best_fitness_history=history,
            seed=self.seed,
            eval_sims=self.eval_sims,
            pruned=self.candidates_pruned,
            quarantined=self.candidates_quarantined,
        )
        if self.events:
            # Fixed emission order (all four phases, then the trial
            # summary) keeps the event-type sequence deterministic.
            for phase in ("parse", "localization", "evaluation", "minimization"):
                self.events.emit(
                    PhaseCompleted(phase=phase, seconds=self.phase_seconds[phase])
                )
            self.events.emit(
                TrialCompleted(
                    plausible=outcome.plausible,
                    fitness=outcome.fitness,
                    generations=outcome.generations,
                    eval_sims=outcome.eval_sims,
                    fitness_evals=outcome.fitness_evals,
                    simulations=outcome.simulations,
                    edits=len(outcome.patch),
                    elapsed_seconds=outcome.elapsed_seconds,
                    pruned=outcome.pruned,
                    quarantined=outcome.quarantined,
                )
            )
        return outcome


# ----------------------------------------------------------------------
# The seed sweep: independent trials, first plausible in seed order wins
# ----------------------------------------------------------------------


def run_trials(
    engine_cls: type[EngineHarness],
    problem: RepairProblem,
    config: RepairConfig | None,
    seeds: Sequence[int],
    *,
    backend: EvaluationBackend | None = None,
    observers: Sequence[RepairObserver] | None = None,
    cancel: Callable[[], bool] | None = None,
    checkpoint: "Callable[[dict[str, Any]], None] | None" = None,
) -> list[RepairOutcome]:
    """Run one ``engine_cls`` trial per seed, in seed order.

    Returns the outcomes of the trials that ran: the sweep stops after
    the first plausible trial, and a ``cancel`` probe that fires between
    trials stops it early (the first trial always runs).  All trials
    share one evaluation backend — ``backend`` when given (the caller
    owns it), else one built here by :func:`make_backend` and closed
    when the sweep ends, so with ``config.workers > 1`` every trial
    evaluates on the same supervised pool.  ``observers`` see every
    trial's events.
    """
    config = config or RepairConfig()
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("a repair sweep needs at least one seed")
    if config.backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown evaluation backend {config.backend!r}; "
            f"valid backends: {', '.join(BACKEND_NAMES)}"
        )
    events = observers if isinstance(observers, ObserverSet) else ObserverSet(observers)
    outcomes: list[RepairOutcome] = []
    with shared_backend(problem, config, backend) as shared:
        for seed in seeds:
            if outcomes and cancel is not None and cancel():
                break  # cancelled between trials: stop the sweep early
            outcome = engine_cls(
                problem, config, seed, backend=shared, observers=events,
                cancel=cancel, checkpoint=checkpoint,
            ).run()
            outcomes.append(outcome)
            if outcome.plausible:
                break
    return outcomes


def best_of(outcomes: Sequence[RepairOutcome]) -> RepairOutcome:
    """The first plausible outcome, else the earliest best-fitness one."""
    best: RepairOutcome | None = None
    for outcome in outcomes:
        if outcome.plausible:
            return outcome
        if best is None or outcome.fitness > best.fitness:
            best = outcome
    if best is None:
        raise ValueError("no trial outcomes to choose from")
    return best


@contextlib.contextmanager
def shared_backend(
    problem: RepairProblem, config: RepairConfig, backend: EvaluationBackend | None = None
) -> Iterator[EvaluationBackend]:
    """``backend`` as is, or one built from ``config`` and closed on exit."""
    if backend is not None:
        yield backend  # the caller owns it
        return
    with make_backend(problem, config) as owned:
        yield owned


__all__ = [
    "EngineHarness",
    "Evaluation",
    "RepairOutcome",
    "RepairProblem",
    "adaptive_chunk_size",
    "best_of",
    "run_trials",
    "shared_backend",
]
