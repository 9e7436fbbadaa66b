"""The three benchmark workloads and the checks on their outputs.

Every workload runs the SMOKE budget (population 120, 4 generations,
600 eval_sims, minimize budget 64) on the compiled simulation engine,
with trial seed 0.  The benchmark's ``--seed`` permutes the order of the
trial or job list (and names the service tenant); it never reaches the
engine, because the GP seed changes the amount of work by up to 12x
(``rs_sens`` needs 69 eval_sims at seed 2 and 414 at seed 1), which no
regression bound could absorb.  Every run therefore does the same work,
and every outcome is checked against the digest recorded in
``digests.json``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import platform
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api import materialize_request
from repro.benchsuite import load_scenario
from repro.cache.store import PersistentEvalCache
from repro.core.backend import evaluate_design_text
from repro.core.config import RepairConfig
from repro.core.repair import repair
from repro.experiments.common import SMOKE
from repro.hdl import generate
from repro.service import RepairDaemon, RepairRequest, ServiceClient

#: GP seed of every trial and job (see the module docstring).
TRIAL_SEED = 0

#: Wall-clock budget that never ends a trial: only the eval_sims and
#: generation budgets may, so outcomes do not depend on host speed.  A
#: trial that still reports this much elapsed time stopped on the clock
#: and counts as failed.
NO_CLOCK = 24 * 3600.0

#: The SMOKE budget with the clock lifted, on the compiled engine.
BASE = SMOKE.scaled(sim_engine="compiled", max_wall_seconds=NO_CLOCK)

#: Where runs put their temporary directories and span files.
OUT_DIR = Path(".perfbench_out")

#: Outcome digests every run is checked against (written by ``record.py``).
DIGESTS = Path(__file__).with_name("digests.json")


def outcome_digest(source: str | None, eval_sims: int, fitness: float, plausible: bool) -> str:
    """The determinism contract of one trial: repaired bytes and counters."""
    blob = json.dumps(
        [hashlib.sha256((source or "").encode()).hexdigest(), eval_sims, repr(fitness), plausible]
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def fingerprint() -> dict:
    """Machine and source identity (the revision only in a git checkout)."""
    revision = None
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = Path(".git") / ref[5:]
            revision = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            revision = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "revision": revision}


@dataclass
class Trial:
    """One finished trial or job, as the checks and metrics see it."""

    key: str
    scenario: str
    seconds: float
    plausible: bool = False
    fitness: float = 0.0
    eval_sims: int = 0
    simulations: int = 0
    fitness_evals: int = 0
    pruned: int = 0
    quarantined: int = 0
    elapsed: float = 0.0
    source: str | None = None
    error: str = ""
    correct: bool = False
    failure: str = ""

    @property
    def digest(self) -> str:
        return outcome_digest(self.source, self.eval_sims, self.fitness, self.plausible)

    def take(self, outcome: Any) -> "Trial":
        """Copy the outcome fields of a ``RepairOutcome`` or its JSON form."""
        get = outcome.get if isinstance(outcome, dict) else lambda name: getattr(outcome, name)
        self.plausible = bool(get("plausible"))
        self.fitness = float(get("fitness"))
        self.eval_sims = int(get("eval_sims"))
        self.simulations = int(get("simulations"))
        self.fitness_evals = int(get("fitness_evals"))
        self.pruned = int(get("pruned"))
        self.quarantined = int(get("quarantined"))
        self.elapsed = float(get("elapsed_seconds"))
        self.source = get("repaired_source")
        return self


@dataclass
class Pass:
    """One timed pass over a workload's trial or job list."""

    wall: float
    trials: list[Trial]
    #: Named sub-pass times (the service's cold and warm passes).
    parts: dict[str, float] = field(default_factory=dict)


class Checker:
    """Output checks: digest, interpreter re-score, held-out correctness."""

    def __init__(self, recorded: dict[str, dict]) -> None:
        #: Trial key → recorded entry (at least its ``digest``).
        self.recorded = recorded
        self._verdicts: dict[tuple[str, str], tuple[float, bool]] = {}

    @classmethod
    def for_workload(cls, workload: str) -> "Checker":
        """Check against the digests recorded for ``workload``."""
        return cls(json.loads(DIGESTS.read_text())["workloads"].get(workload, {}))

    def check(self, trial: Trial, problem: Any, config: RepairConfig, scenario: Any) -> None:
        """Set ``trial.failure`` (empty when every check passes) and ``correct``."""
        expected = self.recorded.get(trial.key, {}).get("digest")
        if trial.error:
            trial.failure = trial.error
        elif trial.quarantined:
            trial.failure = f"{trial.quarantined} candidates quarantined"
        elif trial.elapsed >= NO_CLOCK:
            trial.failure = "stopped on the wall clock"
        elif expected is None:
            trial.failure = "no digest recorded"
        elif trial.digest != expected:
            trial.failure = "outcome digest differs from the recorded one"
        if trial.failure or not trial.plausible:
            return
        verdict = self._verdicts.get((trial.key, trial.digest))
        if verdict is None:
            reference = evaluate_design_text(
                trial.source, problem.testbench, problem.oracle,
                config.scaled(sim_engine="interp"),
            )
            verdict = (reference.fitness, scenario.is_correct_repair(trial.source))
            self._verdicts[(trial.key, trial.digest)] = verdict
        if verdict[0] < 1.0:
            trial.failure = f"interpreter re-score gives fitness {verdict[0]}"
        trial.correct = verdict[1]


# ----------------------------------------------------------------------
# GP workloads: repair() trials run back to back in this process
# ----------------------------------------------------------------------


class GPWorkload:
    """CirFix trials on a fixed scenario list, one ``repair()`` call each."""

    def __init__(self, name: str, scenarios: tuple[str, ...], **backend: Any) -> None:
        self.name = name
        self.scenario_ids = scenarios
        self.base = BASE.scaled(**backend)
        self.workers = self.base.workers
        self.scenarios: dict[str, Any] = {}
        self.configs: dict[str, RepairConfig] = {}

    def setup(self) -> None:
        """Load scenarios and pay the process-wide caches a CLI run pays.

        Oracle generation and golden-step counting fill ``_ORACLE_CACHE``
        and ``_STEPS_CACHE``; scoring the faulty design once compiles the
        testbench's process templates into ``_TB_COMPILE_STATE``.
        """
        for scenario_id in self.scenario_ids:
            scenario = load_scenario(scenario_id)
            problem = scenario.problem()
            config = scenario.suggested_config(self.base)
            evaluate_design_text(
                generate(problem.design), problem.testbench, problem.oracle, config
            )
            self.scenarios[scenario_id] = scenario
            self.configs[scenario_id] = config

    def run_pass(self, seed: int, tracer: Any) -> Pass:
        order = list(self.scenario_ids)
        random.Random(seed).shuffle(order)
        trials = []
        started = time.perf_counter()
        for scenario_id in order:
            tracer.trial = f"{self.name}/{scenario_id}"
            problem = self.scenarios[scenario_id].problem()
            trial_started = time.perf_counter()
            trial = Trial(f"{scenario_id}/cirfix", scenario_id, 0.0)
            try:
                trial.take(repair(problem, self.configs[scenario_id], seeds=(TRIAL_SEED,)))
            except Exception as exc:  # noqa: BLE001 - a raised trial is a failed trial
                trial.error = f"{type(exc).__name__}: {exc}"
            trial.seconds = time.perf_counter() - trial_started
            trials.append(trial)
        return Pass(time.perf_counter() - started, trials)

    def check(self, checker: Checker, trials: list[Trial]) -> None:
        for trial in trials:
            scenario = self.scenarios[trial.scenario]
            checker.check(trial, scenario.problem(), self.configs[trial.scenario], scenario)

    def teardown(self) -> None:
        """Nothing outlives a pass."""


# ----------------------------------------------------------------------
# Service workload: one closed-loop client against an in-process daemon
# ----------------------------------------------------------------------

#: (scenario, engine, extra config overrides) of the resubmitted job list.
SERVICE_JOBS: tuple[tuple[str, str, dict], ...] = (
    ("counter_reset", "cirfix", {}),
    ("mux_hex", "cirfix", {"lint_gate": True}),
    ("sha3_loop", "cirfix", {}),
    ("dec_numeric", "synth", {}),
    ("lshift_cond", "synth", {}),
    ("ff_cond", "cirfix", {}),
)

#: Passes over the job list: one cold, then warm resubmissions.
SERVICE_PASSES = ("cold", "warm1", "warm2")


def service_request(scenario: str, engine: str, extra: dict, tenant: str = "bench") -> RepairRequest:
    """The request one service job submits (SMOKE budget, clock lifted)."""
    overrides = {
        "population_size": BASE.population_size,
        "max_generations": BASE.max_generations,
        "max_fitness_evals": BASE.max_fitness_evals,
        "minimize_budget": BASE.minimize_budget,
        "max_wall_seconds": BASE.max_wall_seconds,
        "sim_engine": BASE.sim_engine,
        **extra,
    }
    return RepairRequest(
        scenario=scenario, config=overrides, seeds=(TRIAL_SEED,), engine=engine, tenant=tenant
    )


class ServiceWorkload:
    """A daemon with ``max_jobs=1``, fresh cache and journal per pass."""

    name = "service_resubmit"
    workers = 1

    def __init__(self) -> None:
        self._tmp: str | None = None
        self._thread: threading.Thread | None = None
        self._client: ServiceClient | None = None
        self._checked: dict[str, tuple[Any, RepairConfig, Any]] = {}

    def setup(self) -> None:
        """Fill the oracle and golden-step caches, then start the daemon."""
        for scenario, _engine, _extra in SERVICE_JOBS:
            load_scenario(scenario).suggested_config(BASE)
        self._start()

    def _start(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix="service-", dir=OUT_DIR)
        PersistentEvalCache.reset_shared()
        # A relative socket path stays under the 107-byte limit however
        # deep the checkout is.
        socket_path = os.path.join(os.path.relpath(self._tmp), "d.sock")
        daemon = RepairDaemon(
            socket_path,
            base_config=RepairConfig(cache_dir=os.path.join(self._tmp, "cache")),
            max_jobs=1,
            journal_dir=os.path.join(self._tmp, "journal"),
        )
        self._thread = threading.Thread(
            target=lambda: asyncio.run(daemon.serve()), name="perfbench-daemon", daemon=True
        )
        self._thread.start()
        self._client = ServiceClient(socket_path, timeout=150)
        deadline = time.monotonic() + 20
        while True:
            try:
                self._client.ping()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def teardown(self) -> None:
        if self._client is not None:
            self._client.shutdown()
            self._client = None
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("service daemon did not stop")
            self._thread = None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def run_pass(self, seed: int, tracer: Any) -> Pass:
        if self._client is None:
            self._start()
        assert self._client is not None
        rng = random.Random(seed)
        trials: list[Trial] = []
        parts: dict[str, float] = {}
        for pass_name in SERVICE_PASSES:
            jobs = list(SERVICE_JOBS)
            rng.shuffle(jobs)
            pass_started = time.perf_counter()
            for scenario, engine, extra in jobs:
                tracer.trial = f"{self.name}/{pass_name}/{scenario}"
                request = service_request(scenario, engine, extra, tenant=f"bench-{seed}")
                trial = Trial(f"{scenario}/{engine}", scenario, 0.0)
                started = time.perf_counter()
                try:
                    _status, response = self._client.submit(request)
                except Exception as exc:  # noqa: BLE001 - a raised job is a failed job
                    trial.error = f"{type(exc).__name__}: {exc}"
                else:
                    if response is None or response.status != "done":
                        trial.error = f"job ended {getattr(response, 'status', 'without response')}"
                    else:
                        trial.take(json.loads(response.outcome_json))
                trial.seconds = time.perf_counter() - started
                trials.append(trial)
            parts[pass_name] = time.perf_counter() - pass_started
        wall = sum(parts.values())
        # The next pass starts cold again, on a fresh daemon and store.
        self.teardown()
        return Pass(wall, trials, parts)

    def check(self, checker: Checker, trials: list[Trial]) -> None:
        by_key = {f"{s}/{e}": (s, e, x) for s, e, x in SERVICE_JOBS}
        for trial in trials:
            if trial.key not in self._checked:
                scenario, engine, extra = by_key[trial.key]
                problem, config = materialize_request(service_request(scenario, engine, extra))
                self._checked[trial.key] = (problem, config, load_scenario(scenario))
            problem, config, loaded = self._checked[trial.key]
            checker.check(trial, problem, config, loaded)


#: Scenario lists of the GP workloads.
GP_SCENARIOS = {
    "gp_construct": ("fsm_next_sens", "sha3_neg"),
    "gp_pool_simulate": ("rs_sens", "counter_reset"),
}

WORKLOADS = ("gp_construct", "gp_pool_simulate", "service_resubmit")

#: One pass's wall time on a 2-core host.  A run makes as many passes as
#: fit into ``--seconds`` by this measure — a count, so every run of
#: every commit does the same work.
NOMINAL_PASS_SECONDS = {"gp_construct": 30.0, "gp_pool_simulate": 15.0, "service_resubmit": 22.0}


def make_workload(name: str) -> Any:
    """The workload called ``name``."""
    if name == "gp_construct":
        return GPWorkload(name, GP_SCENARIOS[name], backend="serial", workers=1)
    if name == "gp_pool_simulate":
        return GPWorkload(name, GP_SCENARIOS[name], backend="process", workers=2)
    if name == "service_resubmit":
        return ServiceWorkload()
    raise ValueError(f"unknown workload {name!r}")
