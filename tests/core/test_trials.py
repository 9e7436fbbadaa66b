"""The seed sweep (:func:`repro.core.harness.run_trials`, :func:`best_of`).

Every engine's runner goes through one sweep: trials run in seed order
on one shared backend, the sweep stops after the first plausible trial,
a cancel probe is polled between trials, and an empty seed list is a
``ValueError`` for every engine and for the experiment driver.  The
trial frame around each engine's search ends a trial at once when the
design is already plausible.
"""

import pytest

from repro.benchsuite import load_scenario
from repro.core import TEST_CONFIG, harness
from repro.core.engines import engine_names, get_engine
from repro.core.harness import RepairOutcome, RepairProblem, best_of, run_trials
from repro.core.patch import Patch
from repro.core.repair import CirFixEngine
from repro.experiments.common import run_scenario
from repro.obs import RecordingObserver
from repro.synth.engine import SynthEngine


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("ff_cond")


def _outcome(seed: int, fitness: float) -> RepairOutcome:
    return RepairOutcome(
        plausible=fitness >= 1.0, patch=Patch.empty(), fitness=fitness,
        repaired_source=None, generations=0, fitness_evals=0, simulations=0,
        elapsed_seconds=0.0, seed=seed,
    )


class Scripted:
    """A stand-in engine whose trial outcome is its seed's fitness."""

    fitness = {0: 0.5, 1: 1.0, 2: 0.7}
    trials: list = []

    def __init__(self, problem, config, seed, *, backend, observers, cancel, checkpoint):
        self.seed = seed
        self.backend = backend

    def run(self) -> RepairOutcome:
        Scripted.trials.append((self.seed, self.backend))
        return _outcome(self.seed, self.fitness[self.seed])


@pytest.fixture
def built(monkeypatch):
    """Record every backend the sweep builds."""
    backends = []
    real = harness.make_backend

    def recording(problem, config):
        backend = real(problem, config)
        backends.append(backend)
        return backend

    monkeypatch.setattr(harness, "make_backend", recording)
    Scripted.trials = []
    return backends


class TestRunTrials:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_backend_per_sweep_stopping_at_the_first_plausible_seed(
        self, scenario, built, workers
    ):
        config = TEST_CONFIG.scaled(workers=workers)
        outcomes = run_trials(Scripted, scenario.problem(), config, (0, 1, 2))
        assert [o.seed for o in outcomes] == [0, 1]
        assert len(built) == 1
        assert [backend for _, backend in Scripted.trials] == [built[0], built[0]]

    def test_a_sweep_that_misses_runs_every_seed_on_one_backend(self, scenario, built):
        outcomes = run_trials(Scripted, scenario.problem(), TEST_CONFIG, (2, 0))
        assert [o.seed for o in outcomes] == [2, 0]
        assert len(built) == 1

    def test_a_passed_backend_is_used_and_none_is_built(self, scenario, built):
        problem = scenario.problem()
        with harness.make_backend(problem, TEST_CONFIG) as mine:
            run_trials(Scripted, problem, TEST_CONFIG, (0, 2), backend=mine)
        assert built == [mine]  # only the test's own call
        assert [backend for _, backend in Scripted.trials] == [mine, mine]

    def test_cancel_is_polled_between_trials(self, scenario, built):
        outcomes = run_trials(
            Scripted, scenario.problem(), TEST_CONFIG, (0, 2), cancel=lambda: True
        )
        assert [o.seed for o in outcomes] == [0]

    def test_unknown_backend_fails_before_any_trial(self, scenario, built):
        with pytest.raises(ValueError, match="unknown evaluation backend"):
            run_trials(
                Scripted, scenario.problem(), TEST_CONFIG.scaled(backend="gpu"), (0,)
            )
        assert Scripted.trials == [] and built == []


class TestBestOf:
    def test_first_plausible_wins(self):
        chosen = best_of([_outcome(0, 0.9), _outcome(1, 1.0), _outcome(2, 1.0)])
        assert chosen.seed == 1

    def test_earliest_best_fitness_otherwise(self):
        chosen = best_of([_outcome(0, 0.5), _outcome(1, 0.8), _outcome(2, 0.8)])
        assert chosen.seed == 1

    def test_no_outcomes_is_an_error(self):
        with pytest.raises(ValueError):
            best_of([])


class TestEmptySeeds:
    @pytest.mark.parametrize("engine", engine_names())
    def test_every_engine_rejects_an_empty_sweep(self, scenario, engine):
        with pytest.raises(ValueError, match="at least one seed"):
            get_engine(engine)(scenario.problem(), TEST_CONFIG, ())

    @pytest.mark.parametrize("engine", engine_names())
    def test_run_scenario_rejects_an_empty_sweep(self, scenario, engine):
        with pytest.raises(ValueError, match="at least one seed"):
            run_scenario(scenario, TEST_CONFIG, seeds=(), engine=engine)


class TestTrialFrame:
    @pytest.mark.parametrize("engine_cls", [CirFixEngine, SynthEngine])
    def test_an_already_plausible_design_ends_the_trial_at_once(self, scenario, engine_cls):
        faulty = scenario.problem()
        golden = RepairProblem.from_text(
            scenario.project.design_text, faulty.testbench_text, faulty.oracle, "golden"
        )
        recorder = RecordingObserver()
        outcome = engine_cls(golden, TEST_CONFIG, 0, observers=[recorder]).run()
        assert outcome.plausible and outcome.generations == 0 and outcome.eval_sims == 1
        assert recorder.types() == [
            "trial_started", "candidate_evaluated", *["phase_completed"] * 4,
            "trial_completed",
        ]
