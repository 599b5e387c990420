"""Engine-level tests of the decision framework.

Each self-* control law exists once, as the ``plan`` of a
:class:`~repro.adaptation.controller.ControlLoop` engine under its
paper-facing name; what each engine decides in a fixed world is pinned by the frozen
digests of ``tests/test_golden_observables.py``.  Covered here:

- every interchangeable planner drives the disturbance scenario;
- the BENCH-DECIDE contention scenario: the arbiter referees one
  conserved memory ledger between the cache tuner and elasticity, never
  exceeding capacity, preempting cache bytes for higher-band scale-ups;
- a raising ``apply`` leaves the ledger as it was (the settled cost is
  refunded);
- effect-attribution signals for elasticity and replication (scorecard
  time-to-effect populated for every engine) and journaled sanctions
  for self-protection;
- determinism: stateful planners (hill-climb, epsilon-greedy) are
  byte-identical across reruns per seed;
- layout: every package imports first in a fresh interpreter and then
  resolves every name it exports (the engines import the framework's
  leaf modules, so there is no import cycle to hit).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adaptation import ElasticityController, ReplicationManager
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.introspection import DecisionJournal
from repro.introspection.query import QueryEngine
from repro.workloads import (
    CorrectWriter,
    build_contention_scenario,
    build_disturbance_scenario,
    build_dos_scenario,
)

# Small-but-eventful disturbance config shared by the tuner tests.
DISTURB = dict(readers=3, dataset_chunks=24, shift_at=30.0, churn_at=55.0,
               churn_heal_s=15.0, duration=80.0, seed=3)


def decision_stream(loop):
    """The comparable record of every decision an engine executed."""
    return [(d.time, d.engine, d.action, tuple(sorted(d.detail.items())))
            for d in loop.decisions]


def make_deployment(seed=7, **overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


def write_blob(dep, client, size_mb=256.0, chunk=64.0):
    def scenario(env):
        blob_id = yield env.process(client.create_blob(chunk))
        yield env.process(client.append(blob_id, size_mb))
        return blob_id

    process = dep.env.process(scenario(dep.env))
    return dep.run(until=process)


# ------------------------------------------------------------------ cache tuner
def test_every_planner_drives_the_disturbance_scenario():
    small = dict(DISTURB, readers=2, dataset_chunks=16, duration=45.0,
                 shift_at=20.0, churn_at=35.0, churn_heal_s=8.0)
    for planner in ("threshold", "marginal-utility", "hill-climb",
                    "epsilon-greedy"):
        scenario = build_disturbance_scenario(planner=planner, **small)
        scenario.run()
        assert scenario.tuner.steps > 0
        assert scenario.tuner.planner_info()["name"] == planner
        assert scenario.total_read_mb() > 0


# ------------------------------------------------------------------ elasticity
def test_elasticity_effect_attribution_populates_time_to_effect():
    dep = make_deployment(data_providers=3, seed=11)
    from repro.telemetry import MetricsRegistry

    dep.env.metrics = MetricsRegistry(dep.env)
    query = QueryEngine.for_deployment(dep)
    journal = DecisionJournal(dep.env, effect_window_s=20.0)
    journal.watch("elasticity", ["elasticity.pool_size"])
    engine = ElasticityController(
        dep, min_providers=3, max_providers=10, high_load=0.3,
        interval_s=2.0, cooldown_s=4.0, provision_delay_s=1.0, query=query,
    ).attach_journal(journal)
    dep.env.process(engine.run(dep.env))
    for i in range(6):
        writer = CorrectWriter(dep.new_client(f"w{i}"), op_mb=512.0, max_ops=6)
        dep.env.process(writer.run(dep.env))
    dep.run(until=90.0)
    journal.resolve_effects()
    ups = [e for e in journal.for_engine("elasticity")
           if e.action == "scale_up"]
    assert ups, "load must trigger at least one scale-up"
    attributed = [e for e in ups
                  if e.effect.get("elasticity.pool_size", {})
                  .get("time_to_effect_s") is not None]
    assert attributed, "pool_size effect attribution must resolve"
    # Scorecard time-to-effect is therefore populated for this engine.
    from repro.introspection import AdaptationScorecard

    report = AdaptationScorecard(journal=journal).engine_report(
        0.0, dep.env.now)
    assert report["elasticity"]["mean_time_to_effect_s"] is not None
    assert report["elasticity"]["planner"] == "watermark"


# ------------------------------------------------------------------ replication
def test_replication_effect_attribution_populates_time_to_effect():
    """The journal attributes a repair's effect against whatever series
    it is told to watch; here the test samples the one it needs, the
    number of chunks below their replication target."""
    from repro.telemetry import MetricsRegistry

    dep = make_deployment(replication=2, seed=7)
    write_blob(dep, dep.new_client("c1"))
    dep.env.metrics = MetricsRegistry(dep.env)
    journal = DecisionJournal(dep.env, effect_window_s=20.0)
    journal.watch("replication", ["replication.under_replicated"])
    manager = ReplicationManager(
        dep, target_replication=2, interval_s=2.0).attach_journal(journal)

    def probe(env):
        while True:
            env.metrics.sample("replication.under_replicated", float(sum(
                len(manager.live_replicas(descriptor)) < 2
                for descriptor in manager.chunk_directory().values())))
            yield env.timeout(1.0)

    dep.env.process(probe(dep.env))
    dep.env.process(manager.run(dep.env))
    next(p for p in dep.providers.values() if p.chunks).node.fail()
    dep.run(until=dep.now + 30.0)

    journal.resolve_effects()
    repairs = [e for e in journal.for_engine("replication")
               if e.action == "repair"]
    assert repairs, "the crash must trigger repairs"
    attributed = [e for e in repairs
                  if e.effect.get("replication.under_replicated", {})
                  .get("time_to_effect_s") is not None]
    assert attributed, "under_replicated effect attribution must resolve"
    assert journal.planner_of("replication")["name"] == "sweep"
    for descriptor in manager.chunk_directory().values():
        assert len(manager.live_replicas(descriptor)) >= 2


# ------------------------------------------------------------------ security
def test_security_sanctions_are_journaled_decisions():
    scenario = build_dos_scenario(
        n_clients=6, malicious_fraction=0.5, security_enabled=True,
        data_providers=12, metadata_providers=2, monitoring_services=2,
        op_mb=256.0, attack_start=10.0, attack_stagger_s=5.0,
        attack_parallel=32, seed=4, scan_interval_s=5.0,
        history_pull_interval_s=2.0, flush_interval_s=1.0, confirmations=1,
    )
    env = scenario.deployment.env
    from repro.telemetry import MetricsRegistry

    env.metrics = MetricsRegistry(env)
    journal = DecisionJournal(env)
    scenario.security.attach_journal(journal)
    scenario.run(until=75.0)

    violations = scenario.security.violations
    assert violations, "the attack must be detected"
    loop = scenario.security.loop
    assert loop.steps == scenario.security.engine.scans
    # Every violation surfaced as a sanction decision, journaled with
    # its detection evidence under the loop's advertised planner.
    assert [(d.time, d.detail["client"], d.detail["policy"])
            for d in loop.decisions] == \
        [(v.time, v.client_id, v.policy.name) for v in violations]
    sanctions = [e for e in journal.for_engine("security")
                 if e.action == "sanction"]
    assert len(sanctions) == len(violations)
    first = sanctions[0]
    assert first.evidence[f"{first.detail['client']}.policy"] == \
        violations[0].policy.name
    assert 0.0 <= first.evidence[f"{first.detail['client']}.trust"] <= 1.0
    assert journal.planner_of("security")["name"] == "policy-scan"
    assert loop.planner_info()["params"]["scan_interval_s"] == 5.0
    # Sanctions tick the standard adaptation counter like every engine;
    # the detection counter is unchanged.
    assert env.metrics.counter("adaptation.sanction").value == len(violations)
    assert env.metrics.counter("security.violations").value == len(violations)


# ------------------------------------------------------------------ contention
CONTEND = dict(readers=4, load_writers=3, dataset_chunks=24,
               shift_at=30.0, duration=90.0, seed=0)


def test_contention_arbiter_never_exceeds_budget_and_preempts():
    # The builder defaults: enough bulk-write load that elasticity must
    # scale up into the deliberately-too-small slack.
    scenario = build_contention_scenario(with_journal=True)
    scenario.run()
    ledger = scenario.arbiter.ledgers["memory_mb"]
    # The conserved-budget invariant held at every settlement (checked
    # live by assert_conserved) and at the end.
    assert ledger.used() <= ledger.capacity + 1e-9
    assert ledger.peak_used <= ledger.capacity + 1e-9
    # Real contention: the budget was actually fought over.
    assert scenario.arbiter.grants > 0
    assert scenario.elasticity.scale_ups > 0
    assert scenario.arbiter.preemptions, \
        "scale-up under a tight budget must preempt cache capacity"
    # Preemption physically shrank caches below their initial footprint
    # at the moment it happened (the tuner may re-grow later).
    _t, requester, holder, resource, freed = scenario.arbiter.preemptions[0]
    assert (requester, holder, resource) == \
        ("elasticity", "cache-tuner", "memory_mb")
    assert freed > 0
    # Both engines journaled under their advertised planners.
    assert scenario.journal.planner_of("cache-tuner")["name"] == \
        "marginal-utility"
    assert scenario.journal.planner_of("elasticity")["name"] == "watermark"
    # Arbiter preemptions land on the shared timeline too.
    assert [e for e in scenario.journal.for_engine("arbiter")
            if e.action == "preempt"]


def test_contention_denials_are_logged_not_applied():
    scenario = build_contention_scenario(with_journal=False, **CONTEND)
    scenario.run()
    if scenario.arbiter.denials:
        assert len(scenario.arbiter.denied_log) == scenario.arbiter.denials
        for _t, engine, _action, resource, shortfall in \
                scenario.arbiter.denied_log:
            assert resource == "memory_mb" and shortfall > 0
            assert engine in ("cache-tuner", "elasticity")
    # Denied actions were never applied: the loop counters agree.
    denied = scenario.tuner.denied + scenario.elasticity.denied
    assert denied == scenario.arbiter.denials


def test_contention_run_is_deterministic_per_seed():
    runs = []
    for _ in range(2):
        scenario = build_contention_scenario(with_journal=False, **CONTEND)
        scenario.run()
        runs.append(scenario.observables())
    assert runs[0] == runs[1]


# ------------------------------------------------------------------ determinism
@pytest.mark.parametrize("planner", ["hill-climb", "epsilon-greedy"])
def test_stateful_planners_are_deterministic_per_seed(planner):
    small = dict(DISTURB, readers=2, dataset_chunks=16, duration=50.0,
                 shift_at=20.0, churn_at=35.0, churn_heal_s=8.0)
    runs = []
    for _ in range(2):
        scenario = build_disturbance_scenario(planner=planner, **small)
        scenario.run()
        runs.append((decision_stream(scenario.tuner),
                     scenario.observables()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


# ------------------------------------------------------------------ layout
#: Each package's public names, resolved from a fresh interpreter: a
#: star import binds every ``__all__`` name and ``dir()`` lists each.
_RESOLVE_ALL = """
import importlib, sys
name = sys.argv[1]
package = importlib.import_module(name)
namespace = {}
exec(f"from {name} import *", namespace)
unbound = [n for n in package.__all__ if n not in namespace]
unlisted = sorted(set(package.__all__) - set(dir(package)))
assert not unbound and not unlisted, (unbound, unlisted)
"""


@pytest.mark.parametrize("package", ["repro"] + sorted(
    f"repro.{init.parent.name}" for init in
    Path(__file__).resolve().parents[1].glob("src/repro/*/__init__.py")))
def test_package_imports_first_in_a_fresh_interpreter(package):
    """Any package imports first, and then resolves every name it
    exports; ``repro.decision`` before ``repro.adaptation`` included."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _RESOLVE_ALL, package],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
