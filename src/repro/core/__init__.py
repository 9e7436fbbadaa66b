"""CirFix core: fault localization, fitness, templates, operators, engine.

The paper's primary contribution.  Public entry points:

- :class:`RepairProblem` — package a faulty design + instrumented testbench
  + oracle trace;
- :class:`CirFixEngine` / :func:`repair` — run Algorithm 1;
- :func:`localize_faults` — Algorithm 2;
- :func:`evaluate_fitness` — the §3.2 fitness function.
"""

from .backend import (
    CandidateResult,
    EvalFailure,
    EvaluationBackend,
    ProcessPoolBackend,
    SerialBackend,
    SupervisionIncident,
    TraceSummary,
    evaluate_design_text,
    make_backend,
    splice_testbench,
)
from .config import TEST_CONFIG, RepairConfig
from .faultloc import FaultLocalization, all_statement_ids, localize_faults
from .fitness import DEFAULT_PHI, FitnessBreakdown, evaluate_fitness, fitness_score
from .minimize import minimize_patch
from .operators import apply_fix_pattern, crossover, mutate
from .oracle import OracleError, combine_sources, degrade_oracle, ensure_instrumented, generate_oracle
from .patch import Edit, Patch
from .repair import CirFixEngine, Evaluation, RepairOutcome, RepairProblem, repair
from .selection import elite, tournament_select
from .serialize import outcome_to_json, patch_from_json, patch_to_json
from .templates import (
    ALL_TEMPLATES,
    EXTENDED_TEMPLATES,
    TEMPLATES_BY_CATEGORY,
    applicable_templates,
    apply_template,
)

__all__ = [
    "RepairConfig",
    "TEST_CONFIG",
    "RepairProblem",
    "CirFixEngine",
    "RepairOutcome",
    "Evaluation",
    "repair",
    "EvaluationBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "CandidateResult",
    "EvalFailure",
    "SupervisionIncident",
    "TraceSummary",
    "make_backend",
    "evaluate_design_text",
    "splice_testbench",
    "Patch",
    "Edit",
    "localize_faults",
    "all_statement_ids",
    "FaultLocalization",
    "evaluate_fitness",
    "fitness_score",
    "FitnessBreakdown",
    "DEFAULT_PHI",
    "minimize_patch",
    "mutate",
    "crossover",
    "apply_fix_pattern",
    "tournament_select",
    "elite",
    "ALL_TEMPLATES",
    "EXTENDED_TEMPLATES",
    "patch_to_json",
    "patch_from_json",
    "outcome_to_json",
    "TEMPLATES_BY_CATEGORY",
    "applicable_templates",
    "apply_template",
    "generate_oracle",
    "degrade_oracle",
    "combine_sources",
    "ensure_instrumented",
    "OracleError",
]
