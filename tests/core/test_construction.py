"""Candidate construction: each candidate is built at most once per trial.

The harness keys a construction memo on the edit list, so ``evaluate``
and ``_evaluate_generation`` apply a given edit list at most once, and
it localizes each tournament-selected parent once per generation
(``EngineHarness.localized_variant``).  Neither memo may change what the
search decides: the counters of a pinned trial stay where they were.
"""

import sys
from collections import Counter

from repro.benchsuite import load_scenario
from repro.core import harness
from repro.core.harness import EngineHarness
from repro.core.patch import Patch
from repro.core.repair import CirFixEngine
from repro.experiments.common import SMOKE

#: SMOKE with the wall clock lifted, so the trials are deterministic.
CONFIG = SMOKE.scaled(max_wall_seconds=1e9)


def _engine(scenario_id: str) -> CirFixEngine:
    scenario = load_scenario(scenario_id)
    return CirFixEngine(scenario.problem(), scenario.suggested_config(CONFIG), seed=0)


def test_each_edit_list_built_once_and_each_parent_localized_once(monkeypatch):
    applied: Counter = Counter()
    localized: Counter = Counter()
    generation = [0]
    real_apply = Patch.apply
    real_localize = harness.localize_faults
    real_generation = EngineHarness._evaluate_generation
    real_localized_variant = EngineHarness.localized_variant
    lookups = [0]

    def counting_apply(patch, base):
        # Frame 1 is ``variant_tree``; frame 2 is the harness method that
        # asked for the tree.
        if sys._getframe(2).f_code.co_name in ("evaluate", "_evaluate_generation"):
            applied[tuple(patch.edits)] += 1
        return real_apply(patch, base)

    def counting_localize(variant, mismatch):
        patch = sys._getframe(1).f_locals["patch"]  # ``_fault_localization``'s
        localized[generation[0], tuple(patch.edits)] += 1
        return real_localize(variant, mismatch)

    def counting_generation(self, patches, out_of_budget):
        generation[0] += 1
        return real_generation(self, patches, out_of_budget)

    def counting_localized_variant(self, parent):
        lookups[0] += 1
        return real_localized_variant(self, parent)

    monkeypatch.setattr(Patch, "apply", counting_apply)
    monkeypatch.setattr(harness, "localize_faults", counting_localize)
    monkeypatch.setattr(EngineHarness, "_evaluate_generation", counting_generation)
    monkeypatch.setattr(EngineHarness, "localized_variant", counting_localized_variant)

    outcome = _engine("counter_reset").run()

    assert outcome.plausible
    assert applied and localized
    assert max(applied.values()) == 1, applied.most_common(3)
    assert max(localized.values()) == 1, localized.most_common(3)
    # The memo was exercised: some parents won several tournaments.
    assert lookups[0] > len(localized)


def test_pinned_counters_fsm_next_sens():
    outcome = _engine("fsm_next_sens").run()
    assert outcome.plausible
    assert (outcome.eval_sims, outcome.simulations, outcome.fitness_evals) == (316, 316, 759)
