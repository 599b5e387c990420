"""End-to-end tests of the assembled PolicyManagement stack."""

import pytest

from repro.blobseer import AccessTable, BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.monitoring import MonitoringConfig, MonitoringStack
from repro.security import (
    Action,
    Policy,
    PolicyManagement,
    SecurityConfig,
    Severity,
    dos_flood_policy,
)
from repro.workloads import CorrectWriter, DosAttacker


def build_stack(policies=None, config=None, seed=71):
    access = AccessTable()
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=8, metadata_providers=2, chunk_size_mb=64.0,
            testbed=TestbedConfig(seed=seed, rate_granularity_s=0.01),
        ),
        access=access,
    )
    monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
        services=2, storage_servers=2, flush_interval_s=1.0,
    ))
    monitoring.attach(deployment)
    security = PolicyManagement(
        deployment, monitoring,
        policies=policies or [dos_flood_policy(max_rate_per_s=1.0, window_s=10.0)],
        access_table=access,
        config=config or SecurityConfig(
            scan_interval_s=5.0, history_pull_interval_s=2.0,
        ),
    )
    return deployment, monitoring, security, access


def test_summary_reflects_pipeline_state():
    deployment, monitoring, security, _access = build_stack()
    writer = CorrectWriter(deployment.new_client("w"), op_mb=256.0, max_ops=2)
    deployment.env.process(writer.run(deployment.env))
    security.start()
    deployment.run(until=40.0)
    summary = security.summary()
    assert summary["history_events"] > 0
    assert summary["scans"] >= 7
    assert summary["violations"] == 0
    assert summary["blocked"] == []


def test_detection_delay_reported_per_client():
    deployment, monitoring, security, _access = build_stack()
    attacker = DosAttacker(deployment.new_client("evil"),
                           start_at=5.0, parallel=16, chunk_size_mb=1.0)
    deployment.env.process(attacker.run(deployment.env))
    security.start()
    deployment.run(until=60.0)
    delay = security.engine.first_detection("evil") - 5.0
    assert 0 < delay < 30
    assert security.engine.first_detection("ghost") is None


def test_start_is_idempotent():
    deployment, monitoring, security, _access = build_stack()
    security.start()
    security.start()  # second call must not double the loops
    deployment.run(until=21.0)
    # 4 scans at 5 s intervals, not 8.
    assert security.engine.scans == 4


def test_throttle_policy_applies_rate_cap_end_to_end():
    policy = Policy(
        name="soft-limit",
        condition="rate(op_start) > 0.5",
        window_s=10.0,
        severity=Severity.WARNING,
        actions=[Action.THROTTLE],
    )
    deployment, monitoring, security, access = build_stack(
        policies=[policy],
        config=SecurityConfig(
            scan_interval_s=5.0, history_pull_interval_s=2.0,
        ),
    )
    attacker = DosAttacker(deployment.new_client("greedy"),
                           start_at=2.0, parallel=8, chunk_size_mb=1.0)
    deployment.env.process(attacker.run(deployment.env))
    security.start()
    deployment.run(until=60.0)
    # Throttled, not blocked: the client keeps running but capped.
    assert "greedy" in access.throttled
    assert "greedy" not in access.blocked
    assert not attacker.blocked
    sanctions = [s.action for s in security.enforcement.sanctions]
    assert Action.THROTTLE in sanctions
    assert Action.BLOCK not in sanctions
