"""Self-protection demo: a DoS attack detected, blocked, and survived.

Recreates the paper's §IV-C story end to end: correct clients stream
1 GB appends while malicious clients launch a write-request flood; the
introspection pipeline feeds the user-activity history, the detection
engine spots the flood policy violation, and enforcement blocks the
attackers — after which throughput recovers.

Run:  python examples/self_protection.py
"""

from repro.introspection import IntrospectionLayer, sparkline
from repro.workloads import build_dos_scenario


def main() -> None:
    scenario = build_dos_scenario(
        n_clients=16,
        malicious_fraction=0.5,
        security_enabled=True,
        data_providers=24,
        metadata_providers=4,
        monitoring_services=4,
        attack_start=30.0,
        seed=7,
    )
    print("policies in force:")
    for policy in scenario.security.engine.policies:
        print("  ", policy.describe())

    scenario.run(until=180.0)

    print("\nenforcement log:")
    for line in scenario.security.enforcement.log:
        print("  ", line)

    blocked = [a.client.client_id for a in scenario.attackers if a.blocked]
    print(f"\nblocked {len(blocked)}/{len(scenario.attackers)} attackers: {blocked}")
    delays = sorted(scenario.detection_delays())
    if delays:
        print(f"detection delay: first {delays[0]:.1f}s, last {delays[-1]:.1f}s")

    layer = IntrospectionLayer(scenario.monitoring.repository)
    series = layer.throughput_timeline(
        bucket_s=10.0,
        clients=[w.client.client_id for w in scenario.correct],
    )
    values = [v for _t, v in series]
    print("\ncorrect-client average throughput (MB/s) over time:")
    print("  " + sparkline(values))
    for t, v in series:
        marker = " <= attack starts" if abs(t - 40.0) < 5 else ""
        print(f"  t={t:6.0f}s  {v:7.1f} MB/s{marker}")

    print("\ntrust values after the incident:")
    for record in sorted(scenario.security.trust.all_records(),
                         key=lambda r: r.trust):
        if record.violations:
            print(f"  {record.client_id:10s} trust={record.trust:.2f} "
                  f"violations={record.violations}")


if __name__ == "__main__":
    main()
