"""ABL-5: trust management (self-protection direction, §V).

"...a Trust management module, which will dynamically compute a trust
value for each user based on his past actions and on the real-time
system state.  The trust values will enable the system to support
adaptive security policies specifically tuned for the history of each
user."

Three client profiles face the same policy engine:

- a clean client (never violates);
- a one-off offender (single mild violation, then behaves);
- a repeat offender (violates persistently).

With trust enabled, the one-off offender gets a mild sanction and
recovers standing, while the repeat offender is escalated to a block
and trips *tighter* thresholds each time.  Without trust, both
offenders receive identical treatment — the ablation's contrast.
"""

from _util import once, report

from repro.security import (
    Action,
    DetectionEngine,
    PolicyEnforcement,
    Policy,
    Severity,
    TrustManager,
    UserActivityHistory,
    UserEvent,
)


class TableTarget:
    def __init__(self):
        self.blocked = set()
        self.throttled = {}

    def block(self, client_id, reason):
        self.blocked.add(client_id)

    def unblock(self, client_id):
        self.blocked.discard(client_id)

    def throttle(self, client_id, cap_mbps):
        self.throttled[client_id] = cap_mbps

    def unthrottle(self, client_id):
        self.throttled.pop(client_id, None)


def burst(history, client, start, count, spacing=0.2):
    for i in range(count):
        history.record(UserEvent(
            time=start + i * spacing, client_id=client,
            kind="op_start", op="write",
        ))


def drip(history, client, start, end, period=10.0):
    t = start
    while t < end:
        history.record(UserEvent(time=t, client_id=client,
                                 kind="op_start", op="write"))
        t += period


def run_profile(use_trust: bool):
    history = UserActivityHistory()
    policy = Policy(
        name="flood",
        condition="rate(op_start) > 1",
        window_s=20.0,
        severity=Severity.SERIOUS,
        actions=[Action.LOG, Action.THROTTLE, Action.BLOCK],
    )
    trust = TrustManager(initial_trust=0.9, recovery_per_s=0.001) if use_trust else None
    engine = DetectionEngine(history, [policy], scan_interval_s=10.0,
                             trust=trust, refire_holdoff_s=20.0)
    target = TableTarget()
    enforcement = PolicyEnforcement(target, trust=trust, throttle_cap_mbps=5.0)

    # Timeline: clean client drips normal traffic the whole time.
    drip(history, "clean", 0.0, 600.0)
    # One-off offender: a single 60-op burst at t=50, then clean traffic.
    burst(history, "oneoff", 50.0, 60)
    drip(history, "oneoff", 80.0, 600.0)
    # Repeat offender: bursts at t=50, t=150, t=250.
    for start in (50.0, 150.0, 250.0):
        burst(history, "repeat", start, 60)

    for scan_time in range(10, 600, 10):
        for violation in engine.scan_once(float(scan_time)):
            enforcement.apply(violation)

    def sanctions_of(client):
        return [s.action.value for s in enforcement.sanctions
                if s.client_id == client]

    result = {
        "clean": (sanctions_of("clean"), None),
        "oneoff": (sanctions_of("oneoff"),
                   trust.trust_of("oneoff", 600.0) if trust else None),
        "repeat": (sanctions_of("repeat"),
                   trust.trust_of("repeat", 600.0) if trust else None),
    }
    result["blocked"] = sorted(target.blocked)
    return result


def test_abl5_trust_management(benchmark):
    def run():
        return {
            "with trust": run_profile(use_trust=True),
            "without trust": run_profile(use_trust=False),
        }

    results = once(benchmark, run)
    rows = []
    for config, data in results.items():
        for client in ("clean", "oneoff", "repeat"):
            sanctions, trust_value = data[client]
            rows.append((
                config, client,
                ",".join(sanctions) or "-",
                f"{trust_value:.2f}" if trust_value is not None else "-",
            ))
    report(
        "ABL-5",
        "adaptive sanctions from trust values (clean / one-off / repeat offender)",
        ["config", "client", "sanctions applied", "final trust"],
        rows,
        notes=[
            "with trust: one-off offender gets a graduated (mild) sanction "
            "and recovers trust; repeat offender escalates to block",
        ],
    )
    with_trust = results["with trust"]
    without = results["without trust"]
    # Clean client is never sanctioned anywhere.
    assert with_trust["clean"][0] == [] and without["clean"][0] == []
    # With trust: graduated response — first sanction of the one-off
    # offender is milder than a block ...
    assert with_trust["oneoff"][0][0] in ("log", "throttle")
    assert "block" not in with_trust["oneoff"][0]
    # ... the repeat offender ends blocked ...
    assert "block" in with_trust["repeat"][0]
    assert "repeat" in with_trust["blocked"]
    # ... and ends with lower trust than the one-off offender.
    assert with_trust["repeat"][1] < with_trust["oneoff"][1]
    # Without trust, the policy's severity alone drives the decision, so
    # one-off and repeat offenders receive the same first sanction.
    assert without["oneoff"][0][0] == without["repeat"][0][0]
