"""Tests for trust management, detection engine, and enforcement."""

import pytest

from repro.security import (
    Action,
    DetectionEngine,
    PolicyEnforcement,
    Policy,
    Severity,
    TrustManager,
    UserActivityHistory,
    UserEvent,
    Violation,
    parse_condition,
)


def uev(t, client="c1", kind="op_start", op="write", mb=0.0, ok=True):
    return UserEvent(time=t, client_id=client, kind=kind, op=op, bytes_mb=mb, ok=ok)


def flood(history, client, start, count, spacing=0.1):
    for i in range(count):
        history.record(uev(start + i * spacing, client=client))


def flood_policy(threshold=1.0, window=10.0):
    return Policy(
        name="flood",
        condition=parse_condition(f"rate(op_start) > {threshold}"),
        window_s=window,
        severity=Severity.CRITICAL,
        actions=[Action.LOG, Action.THROTTLE, Action.BLOCK],
    )


# ------------------------------------------------------------------ trust
def test_trust_starts_at_initial():
    trust = TrustManager(initial_trust=0.8)
    assert trust.trust_of("x", now=0.0) == pytest.approx(0.8)


def test_trust_punish_scales_with_severity():
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.0)
    t_warn = trust.punish("a", Severity.WARNING, now=0.0)
    t_crit = trust.punish("b", Severity.CRITICAL, now=0.0)
    assert t_crit < t_warn < 1.0


def test_trust_recovers_over_time():
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.01)
    trust.punish("a", Severity.CRITICAL, now=0.0)
    low = trust.trust_of("a", now=0.0)
    later = trust.trust_of("a", now=50.0)
    assert later == pytest.approx(low + 0.5)
    assert trust.trust_of("a", now=10_000.0) == 1.0  # capped


def test_trust_floor_holds():
    trust = TrustManager(initial_trust=0.5, recovery_per_s=0.0)
    for _ in range(20):
        trust.punish("a", Severity.CRITICAL, now=0.0)
    assert trust.trust_of("a", now=0.0) == pytest.approx(0.01)


def test_trust_threshold_factor_range():
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.0)
    assert trust.threshold_factor("fresh", now=0.0) == pytest.approx(1.0)
    for _ in range(10):
        trust.punish("bad", Severity.CRITICAL, now=0.0)
    factor = trust.threshold_factor("bad", now=0.0)
    assert 0.25 <= factor < 0.5


def test_trust_escalation_ladder():
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.0)
    assert trust.recommended_escalation("good", now=0.0) == "log"
    trust.punish("mid", Severity.SERIOUS, now=0.0)  # 1.0 -> 0.5 -> below throttle? 0.5 not < 0.5
    trust.punish("mid", Severity.WARNING, now=0.0)  # 0.4
    assert trust.recommended_escalation("mid", now=0.0) == "throttle"
    for _ in range(4):
        trust.punish("bad", Severity.CRITICAL, now=0.0)
    assert trust.recommended_escalation("bad", now=0.0) == "block"


# ------------------------------------------------------------------ detection engine
def test_detection_fires_on_flood():
    history = UserActivityHistory()
    flood(history, "evil", start=0.0, count=50)
    engine = DetectionEngine(history, [flood_policy()], scan_interval_s=5.0)
    violations = engine.scan_once(now=5.0)
    assert len(violations) == 1
    assert violations[0].client_id == "evil"


def test_detection_ignores_normal_clients():
    history = UserActivityHistory()
    history.record(uev(1.0, client="good"))
    history.record(uev(9.0, client="good"))
    engine = DetectionEngine(history, [flood_policy()])
    assert engine.scan_once(now=10.0) == []


def test_detection_refire_holdoff():
    history = UserActivityHistory()
    flood(history, "evil", start=0.0, count=200, spacing=0.1)
    engine = DetectionEngine(history, [flood_policy()], refire_holdoff_s=30.0)
    assert len(engine.scan_once(now=10.0)) == 1
    assert engine.scan_once(now=15.0) == []  # silenced
    flood(history, "evil", start=30.0, count=200, spacing=0.05)
    assert len(engine.scan_once(now=41.0)) == 1  # holdoff expired
    assert engine.violations[-1].occurrence == 2


def test_detection_confirmations_delay_firing():
    history = UserActivityHistory()
    flood(history, "evil", start=0.0, count=500, spacing=0.05)
    engine = DetectionEngine(history, [flood_policy()], confirmations=3)
    assert engine.scan_once(now=5.0) == []
    assert engine.scan_once(now=10.0) == []
    assert len(engine.scan_once(now=15.0)) == 1


def test_detection_confirmation_streak_resets():
    history = UserActivityHistory()
    flood(history, "evil", start=0.0, count=50, spacing=0.05)  # burst ends t=2.5
    engine = DetectionEngine(history, [flood_policy(window=10.0)], confirmations=2)
    assert engine.scan_once(now=5.0) == []  # streak 1
    assert engine.scan_once(now=30.0) == []  # quiet window: streak resets
    flood(history, "evil", start=30.0, count=50, spacing=0.05)
    assert engine.scan_once(now=32.0) == []  # streak 1 again
    assert len(engine.scan_once(now=34.0)) == 1


def test_detection_trust_tightens_thresholds():
    history = UserActivityHistory()
    # 8 ops in 10 s: rate 0.8, below the 1.0 threshold for a trusted user.
    flood(history, "repeat", start=0.0, count=8, spacing=1.0)
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.0)
    engine = DetectionEngine(history, [flood_policy()], trust=trust)
    assert engine.scan_once(now=10.0) == []
    # After punishment, the same behaviour trips the scaled threshold.
    for _ in range(5):
        trust.punish("repeat", Severity.CRITICAL, now=10.0)
    flood(history, "repeat", start=10.0, count=8, spacing=1.0)
    assert len(engine.scan_once(now=20.0)) == 1


def test_first_detection_recorded():
    history = UserActivityHistory()
    flood(history, "evil", start=0.0, count=100)
    engine = DetectionEngine(history, [flood_policy()])
    engine.scan_once(now=7.0)
    assert engine.first_detection("evil") == 7.0
    assert engine.first_detection("good") is None


# ------------------------------------------------------------------ activity source
def test_activity_source_orders_each_client_like_a_per_server_scan():
    """Pulling through the repository cursor (one stable time sort of the
    new records, servers in order) builds, per client, the history a
    server-by-server scan of the new records builds: the history inserts
    by time after equal times, so equal-time records keep server-then-
    arrival order either way, and a record stored late lands by its time."""
    from repro.blobseer.instrument import MonitoringEvent
    from repro.cluster import Testbed
    from repro.monitoring import StorageRepository, StorageServer
    from repro.security.history import IntrospectionActivitySource, normalize

    bed = Testbed()
    servers = [StorageServer(bed.add_node(f"s{i}"), f"s{i}") for i in range(2)]
    repository = StorageRepository(servers)

    def store(server, t, client, label):
        server.records.append(MonitoringEvent(
            time=t, actor_type="client", actor_id=client,
            event_type="op_start", client_id=client, fields={"op": label}))

    scanned, cursors = UserActivityHistory(), {}

    def scan():
        for server in repository.servers:
            fresh = server.records[cursors.get(server.server_id, 0):]
            cursors[server.server_id] = len(server.records)
            for record in fresh:
                scanned.record(normalize(record))

    pulled = UserActivityHistory()
    source = IntrospectionActivitySource(repository, pulled)
    store(servers[0], 1.0, "a", "s0-1")
    store(servers[0], 2.0, "b", "s0-2")
    store(servers[0], 2.0, "a", "s0-3")
    store(servers[1], 2.0, "a", "s1-1")
    store(servers[1], 1.5, "b", "s1-2")
    scan()
    source.pull_once(0.0)
    store(servers[1], 1.0, "a", "s1-late")
    store(servers[0], 2.0, "b", "s0-late")
    scan()
    source.pull_once(0.0)

    assert source.pulled == 7
    for client in ("a", "b"):
        assert pulled.events(client) == scanned.events(client)
    assert [e.op for e in pulled.events("a")] == [
        "s0-1", "s1-late", "s0-3", "s1-1"]


# ------------------------------------------------------------------ enforcement
class FakeTarget:
    def __init__(self):
        self.blocked = {}
        self.throttled = {}

    def block(self, client_id, reason):
        self.blocked[client_id] = reason

    def throttle(self, client_id, cap_mbps):
        self.throttled[client_id] = cap_mbps


def violation(client="evil", severity=Severity.CRITICAL,
              actions=(Action.LOG, Action.THROTTLE, Action.BLOCK),
              occurrence=1, time=10.0):
    policy = Policy(
        name="p", condition="count(op_start) > 0", window_s=10.0,
        severity=severity, actions=list(actions),
    )
    return Violation(time=time, client_id=client, policy=policy, occurrence=occurrence)


def test_enforcement_blocks_critical_without_trust():
    target = FakeTarget()
    enforcement = PolicyEnforcement(target)
    sanction = enforcement.apply(violation(severity=Severity.CRITICAL))
    assert sanction.action is Action.BLOCK
    assert "evil" in target.blocked


def test_enforcement_trusted_first_offense_is_mild():
    target = FakeTarget()
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.0)
    enforcement = PolicyEnforcement(target, trust=trust)
    sanction = enforcement.apply(violation())
    assert sanction.action is Action.LOG
    assert target.blocked == {}
    # Trust was punished by the violation.
    assert trust.trust_of("evil", now=10.0) < 1.0


def test_enforcement_escalates_repeat_offender():
    target = FakeTarget()
    trust = TrustManager(initial_trust=1.0, recovery_per_s=0.0)
    enforcement = PolicyEnforcement(target, trust=trust)
    enforcement.apply(violation(occurrence=1))
    sanction = enforcement.apply(violation(occurrence=2))
    assert sanction.action is Action.BLOCK


def test_enforcement_low_trust_goes_straight_to_block():
    target = FakeTarget()
    trust = TrustManager(initial_trust=0.1, recovery_per_s=0.0)
    enforcement = PolicyEnforcement(target, trust=trust)
    sanction = enforcement.apply(violation())
    assert sanction.action is Action.BLOCK


def test_enforcement_system_pressure_escalates():
    target = FakeTarget()
    trust = TrustManager(initial_trust=0.4, recovery_per_s=0.0)  # -> throttle
    enforcement = PolicyEnforcement(target, trust=trust, load_probe=lambda: 0.95)
    sanction = enforcement.apply(violation())
    assert sanction.action is Action.BLOCK  # escalated one step


def test_enforcement_respects_policy_action_menu():
    target = FakeTarget()
    enforcement = PolicyEnforcement(target)
    sanction = enforcement.apply(
        violation(severity=Severity.CRITICAL, actions=(Action.LOG, Action.ALERT))
    )
    # The policy never allows blocking; strongest available is ALERT.
    assert sanction.action is Action.ALERT
    assert target.blocked == {}


def test_enforcement_throttle_applies_cap():
    target = FakeTarget()
    trust = TrustManager(initial_trust=0.4, recovery_per_s=0.0)
    enforcement = PolicyEnforcement(target, trust=trust, throttle_cap_mbps=7.0)
    sanction = enforcement.apply(violation())
    assert sanction.action is Action.THROTTLE
    assert target.throttled["evil"] == 7.0
