"""repro.fuzz — seeded Verilog fuzzing + differential oracles.

A correctness harness for the whole CirFix stack: a seeded random
Verilog-2001 generator (constrained to the :mod:`repro.hdl` subset)
feeds a battery of differential/metamorphic oracles —

- **roundtrip**: parse → codegen → re-parse is a numbered structural
  fixpoint, and the parsed tree's clone is an exact, unaliased copy
  (:func:`check_roundtrip`);
- **lint**: static analysis never raises on a parseable program and
  renders byte-stable reports (:func:`check_lint`);
- **determinism**: simulation is bit-identical run-to-run and the
  evaluation pipeline scores a program 1.0 against its own trace
  (:func:`check_determinism`);
- **backends**: ``SerialBackend`` and ``ProcessPoolBackend`` agree
  (:func:`check_backends`);
- **templates**: every repair template applied to every legal target
  re-parses, i.e. the mutation operators are closed over parseable
  programs (:func:`check_templates`);
- **logic**: 4-state ops satisfy commutativity and x-pessimism
  monotonicity against exhaustive small-width tables
  (:func:`check_logic_properties`).

Failures shrink automatically by delta-reducing the generator's
decision trace (:func:`shrink_decisions`, built on the same ddmin as
patch minimization) and land as reproducers in ``tests/fuzz/corpus/``.

CLI: ``python -m repro fuzz --seed 0 --count 100``.  Docs:
``docs/fuzzing.md``.
"""

from .faults import FAULTS
from .generator import (
    DecisionTrace,
    GeneratedProgram,
    generate_program,
    replay_program,
)
from .harness import FuzzConfig, FuzzReport, FuzzViolation, run_fuzz
from .logic_props import check_logic_properties
from .oracles import (
    ORACLES,
    Violation,
    check_backends,
    check_determinism,
    check_lint,
    check_roundtrip,
    check_templates,
    split_program,
)
from .shrink import shrink_decisions

__all__ = [
    "DecisionTrace",
    "GeneratedProgram",
    "generate_program",
    "replay_program",
    "FuzzConfig",
    "FuzzReport",
    "FuzzViolation",
    "run_fuzz",
    "Violation",
    "ORACLES",
    "check_roundtrip",
    "check_lint",
    "check_determinism",
    "check_backends",
    "check_templates",
    "check_logic_properties",
    "split_program",
    "shrink_decisions",
    "FAULTS",
]
