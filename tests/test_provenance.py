"""Tests for the adaptation provenance journal + quality scorecard.

Covers the PR-8 contract:

- the :class:`ControlLoop` decision window is bounded (ring semantics)
  while the all-time counter keeps counting;
- the :class:`DecisionJournal` records decisions with evidence,
  trace context and lazily-resolved effect attribution, without ever
  perturbing the simulation (journal-on runs are byte-identical to
  journal-off runs across seeds);
- failovers, chaos invariant checks and security sanctions land in the
  same journal;
- the SEAMS quality metrics (settling time, overshoot, SLO-violation
  seconds, oscillations) compute correctly on synthetic signals;
- the Chrome trace's journal tracks are well-formed.
"""

import pytest

from repro.adaptation import AdaptationDecision, ControlLoop
from repro.decision import Action
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.introspection import (
    AdaptationScorecard,
    DecisionJournal,
    Disturbance,
    SignalSpec,
    adaptation_scorecard,
    journal_tail,
    overshoot,
    settling_time,
    slo_violation_seconds,
)
from repro.introspection.provenance import JournalEntry
from repro.simulation import Environment
from repro.telemetry import MetricsRegistry
from repro.telemetry.export import chrome_trace
from repro.workloads import build_disturbance_scenario


def make_deployment(seed=7, **overrides):
    defaults = dict(
        data_providers=6,
        metadata_providers=2,
        chunk_size_mb=8.0,
        testbed=TestbedConfig(seed=seed),
    )
    defaults.update(overrides)
    return BlobSeerDeployment(BlobSeerConfig(**defaults))


class Noisy(ControlLoop):
    """Emits one decision per tick, noting synthetic evidence."""

    name = "noisy"

    def plan(self, now):
        self.note(signal=now)
        yield Action("act", self.name, detail={"tick": now})


# ------------------------------------------------------------ bounded decisions
def test_decision_window_is_bounded_and_total_keeps_counting():
    dep = make_deployment()
    loop = Noisy(interval_s=1.0, max_decisions=5)
    dep.env.process(loop.run(dep.env))
    dep.run(until=12.5)

    assert loop.decisions_total == 12
    assert len(loop.decisions) == 5
    assert loop.decisions_dropped == 7
    # The retained window is the newest five, still a plain sliceable list.
    assert [d.detail["tick"] for d in loop.decisions] == [8, 9, 10, 11, 12]
    assert loop.decisions[:2][0].detail["tick"] == 8
    # decisions_of keeps working on the retained window.
    assert len(loop.decisions_of("act")) == 5
    assert loop.decisions_of("never") == []


def test_max_decisions_validation():
    with pytest.raises(ValueError):
        Noisy(max_decisions=0)


# ------------------------------------------------------------ journal recording
def test_journal_records_decisions_with_evidence_and_latency():
    dep = make_deployment()
    journal = DecisionJournal(dep.env)
    loop = Noisy(interval_s=1.0).attach_journal(journal)
    dep.env.process(loop.run(dep.env))
    dep.run(until=3.5)

    assert journal.total == 3
    entry = journal.entries[0]
    assert entry.kind == "decision"
    assert entry.engine == "noisy"
    assert entry.action == "act"
    assert entry.evidence == {"signal": 1.0}
    assert entry.latency_s is not None and entry.latency_s >= 0.0
    assert entry.trace_id == 0  # NullTracer: no trace context
    assert [(e.engine, e.action) for e in journal.entries] == [
        ("noisy", "act")] * 3
    assert journal.engines() == ["noisy"]


def test_journal_ring_capacity_and_dropped():
    env = Environment()
    journal = DecisionJournal(env, capacity=3)
    for i in range(5):
        journal.record_invariant(f"inv-{i}", ok=True, time=float(i))
    assert journal.total == 5
    assert journal.dropped == 2
    assert len(journal) == 3
    assert [e.action for e in journal.entries] == ["inv-2", "inv-3", "inv-4"]
    with pytest.raises(ValueError):
        DecisionJournal(env, capacity=0)


def test_journal_effect_attribution_on_synthetic_series():
    env = Environment()
    metrics = MetricsRegistry(env)
    journal = DecisionJournal(env, metrics=metrics, effect_window_s=10.0)
    journal.watch("eng", ["sig"])

    # Pre-decision window (t in (0, 10]): mean 4.0.
    for t in (2.0, 6.0, 10.0):
        metrics.sample("sig", 4.0, time=t)
    decision = AdaptationDecision(10.0, "eng", "boost", {})
    entry = journal.record_decision(decision, evidence={"w": 1})
    assert entry.effect_at == 20.0
    assert entry.effect["sig"]["before"] == 4.0
    assert entry.effect["sig"]["after"] is None

    # Post-decision window: the signal steps up to 8.0 at t=14.
    metrics.sample("sig", 4.0, time=12.0)
    for t in (14.0, 16.0, 18.0):
        metrics.sample("sig", 8.0, time=t)

    # Window not elapsed yet: resolution is lazy and does nothing.
    assert journal.resolve_effects(now=15.0) == 0
    assert journal.resolve_effects(now=20.0) == 1
    effect = entry.effect["sig"]
    assert effect["after"] == pytest.approx(7.0)  # mean(4, 8, 8, 8)
    assert effect["delta"] == pytest.approx(3.0)
    # Halfway = 4.0 + 1.5 = 5.5; first crossing at t=14 → 4s after t0.
    assert effect["time_to_effect_s"] == pytest.approx(4.0)
    # Re-resolving is idempotent.
    assert journal.resolve_effects(now=30.0) == 0


# ------------------------------------------------------------ robustness feeds
def test_failover_and_chaos_feed_the_journal():
    from repro.robustness import ChaosHarness

    dep = make_deployment(seed=42, vm_replicas=3)
    journal = DecisionJournal(dep.env)
    harness = ChaosHarness(dep, check_every_s=5.0, settle_s=10.0)
    harness.attach_journal(journal)
    # attach_journal auto-wires the VM replication group too.
    assert dep.vm_group.journal is journal

    client = dep.new_client("c1", rpc_timeout_s=4.0)

    def load():
        blob_id = yield from client.create_blob(8.0)
        yield from client.append(blob_id, 8.0)

    dep.env.process(load(), name="load")
    dep.run(until=2.0)
    harness.apply_schedule([
        {"at": 5.0, "kind": "crash", "node": "vm-primary",
         "recover_after": 15.0},
    ])
    harness.run(until=40.0)
    harness.assert_clean()

    failovers = [e for e in journal.entries if e.kind == "failover"]
    assert len(failovers) == 1
    assert failovers[0].engine == "vm-replication"
    assert failovers[0].detail["epoch"] == dep.vm_group.failovers[0].epoch
    summaries = [e for e in journal.entries
                 if e.kind == "invariant" and e.action == "soak_summary"]
    assert len(summaries) == 1
    assert summaries[0].detail["ok"] is True
    assert summaries[0].detail["violations"] == 0


def test_security_sanctions_feed_the_journal():
    from repro.security.detection import Violation
    from repro.security.policy import dos_flood_policy
    from repro.workloads import build_dos_scenario

    scenario = build_dos_scenario(n_clients=2, malicious_fraction=0.5,
                                  data_providers=4, metadata_providers=2,
                                  monitoring_services=2)
    env = scenario.deployment.env
    journal = DecisionJournal(env)
    scenario.security.attach_journal(journal)
    # The scan loop journals what the detection engine's scan reports.
    violation = Violation(time=10.0, client_id="evil-0",
                          policy=dos_flood_policy(), occurrence=1)
    scenario.security.engine.scan_once = lambda now: [violation]
    env.process(scenario.security.loop.run(env))
    env.run(until=10.5)

    sanctions = [e for e in journal.entries if e.action == "sanction"]
    assert len(sanctions) == 1
    assert sanctions[0].engine == "security"
    assert sanctions[0].time == 10.0
    assert sanctions[0].detail["client"] == "evil-0"
    assert sanctions[0].evidence["evil-0.policy"] == violation.policy.name
    assert 0.0 <= sanctions[0].evidence["evil-0.trust"] <= 1.0


# ------------------------------------------------------------ quality metrics
BAND = SignalSpec("s", min_value=10.0, hold_s=4.0)


def test_settling_time_requires_the_hold():
    # Dips out of band, re-enters at t=6, holds through t=12.
    pts = [(1.0, 12.0), (2.0, 5.0), (4.0, 5.0), (6.0, 11.0),
           (8.0, 12.0), (10.0, 12.0), (12.0, 12.0)]
    assert settling_time(pts, BAND, 1.5, 12.0) == pytest.approx(4.5)
    # A shorter observation window cannot confirm the hold.
    assert settling_time(pts, BAND, 1.5, 9.0) is None
    # Never re-enters: None.  No data: None.
    assert settling_time([(2.0, 5.0), (5.0, 5.0)], BAND, 0.0, 10.0) is None
    assert settling_time([], BAND, 0.0, 10.0) is None
    # Never left the band after the disturbance: settles immediately.
    calm = [(t, 12.0) for t in range(1, 10)]
    assert settling_time(calm, BAND, 0.5, 9.0) == pytest.approx(0.5)


def test_overshoot_is_fractional_excursion():
    pts = [(1.0, 12.0), (2.0, 5.0), (3.0, 8.0)]
    # Worst excursion: (10 - 5) / 10 = 0.5.
    assert overshoot(pts, BAND, 0.0, 3.0) == pytest.approx(0.5)
    assert overshoot(pts, BAND, 2.5, 3.0) == pytest.approx(0.2)
    upper = SignalSpec("s", max_value=100.0)
    assert overshoot([(1.0, 150.0)], upper, 0.0, 2.0) == pytest.approx(0.5)


def test_slo_violation_seconds_sample_and_hold():
    pts = [(1.0, 12.0), (2.0, 5.0), (4.0, 12.0), (6.0, 5.0)]
    # Out of band over [2, 4) plus the last sample held to t1=9: 2 + 3.
    assert slo_violation_seconds(pts, BAND, 0.0, 9.0) == pytest.approx(5.0)
    assert slo_violation_seconds([], BAND, 0.0, 9.0) == 0.0
    assert slo_violation_seconds(pts, BAND, 0.0, 1.5) == 0.0


def test_oscillation_counting_pairs_antagonists_by_subject():
    def entry(seq, t, action, cache):
        return JournalEntry(seq=seq, time=t, kind="decision",
                            engine="cache-tuner", action=action,
                            detail={"cache": cache})

    entries = [
        entry(1, 0.0, "cache_grow", "a"),
        entry(2, 10.0, "cache_shrink", "a"),    # oscillation (within 60s)
        entry(3, 20.0, "cache_grow", "b"),
        entry(4, 100.0, "cache_shrink", "b"),   # outside the window
        entry(5, 110.0, "cache_shrink", "c"),   # no prior grow: not counted
    ]
    score = AdaptationScorecard()
    assert score._oscillations(entries) == 1


def test_scorecard_renders_terminal_panels():
    env = Environment()
    metrics = MetricsRegistry(env)
    for t in range(1, 21):
        metrics.sample("sig", 5.0 if 8 <= t <= 12 else 20.0,
                       time=float(t))
    journal = DecisionJournal(env, metrics=metrics)
    journal.record_decision(
        AdaptationDecision(9.0, "eng", "boost", {}), latency_s=0.001)
    score = AdaptationScorecard(
        journal=journal, metrics=metrics,
        signals=[SignalSpec("sig", min_value=10.0, hold_s=2.0,
                            label="signal")],
        disturbances=[Disturbance(8.0, "dip")],
    ).compute(t0=0.0, t1=20.0)

    assert score["signals"]["signal"]["slo_violation_s"] == pytest.approx(5.0)
    dip = score["signals"]["signal"]["disturbances"]["dip"]
    assert dip["settling_s"] == pytest.approx(5.0)
    assert dip["overshoot"] == pytest.approx(0.5)
    assert score["engines"]["eng"]["decisions"] == 1
    assert score["fleet"]["decisions"] == 1

    panel = adaptation_scorecard(score)
    assert "signal" in panel and "eng" in panel and "fleet:" in panel
    tail = journal_tail(journal)
    assert "eng" in tail and "boost" in tail
    assert "(no decisions journaled)" in journal_tail(
        DecisionJournal(env))


# ------------------------------------------------------------ determinism
@pytest.mark.parametrize("seed", [0, 3])
def test_journal_is_observably_inert_on_disturbance_scenario(seed):
    """Journal-on runs are byte-identical to journal-off runs: same
    completion logs, delivered bytes, event counts and metrics."""
    small = dict(readers=2, dataset_chunks=16, duration=60.0,
                 shift_at=20.0, churn_at=40.0, churn_heal_s=10.0,
                 churn_providers=1, data_providers=6)
    observables = {}
    for with_journal in (False, True):
        scenario = build_disturbance_scenario(
            with_journal=with_journal, seed=seed, **small)
        scenario.run()
        observables[with_journal] = scenario.observables()
    assert observables[False] == observables[True]
    # And the journal-on run actually journaled something.
    scenario = build_disturbance_scenario(with_journal=True, seed=seed,
                                          **small)
    scenario.run()
    assert scenario.journal.total > 0


# ------------------------------------------------------------ exports
def test_chrome_trace_journal_tracks():
    from repro import telemetry

    dep = make_deployment()
    tele = telemetry.enable(dep)
    journal = DecisionJournal(dep.env, metrics=tele.metrics,
                              effect_window_s=5.0)
    journal.watch("eng", ["sig"])

    def scenario(env):
        with tele.tracer.span("work", track="node-a"):
            tele.metrics.sample("sig", 1.0)
            yield env.timeout(1.0)
            journal.record_decision(
                AdaptationDecision(env.now, "eng", "boost", {"k": 1}))
        yield env.timeout(2.0)
        tele.metrics.sample("sig", 9.0)  # inside the 5 s effect window

    dep.env.process(scenario(dep.env))
    dep.run(until=15.0)

    # Trace context was captured from the open span.
    entry = journal.entries[0]
    assert entry.trace_id != 0 and entry.span_id != 0

    trace = chrome_trace(tele.tracer, journal=journal)
    events = trace["traceEvents"]
    thread_names = [e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"]
    assert "adaptation:eng" in thread_names
    instants = [e for e in events if e.get("cat") == "adaptation.decision"]
    assert len(instants) == 1
    assert instants[0]["name"] == "boost"
    flows = [e for e in events if e.get("cat") == "adaptation.flow"]
    assert {e["ph"] for e in flows} == {"s", "f"}
    assert all(e["id"] >= 1_000_000_000 for e in flows)
    effects = [e for e in events if e.get("cat") == "adaptation.effect"]
    assert len(effects) == 1
