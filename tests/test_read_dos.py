"""End-to-end test of the read-intensive DoS scenario (§IV-C names both
write- and read-intensive DoS vulnerabilities)."""

import pytest

from repro.blobseer import AccessTable, BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.monitoring import MonitoringConfig, MonitoringStack
from repro.security import (
    PolicyManagement,
    SecurityConfig,
    read_flood_policy,
)
from repro.workloads import CorrectReader, DosReader


def test_read_flood_detected_and_blocked():
    access = AccessTable()
    deployment = BlobSeerDeployment(
        BlobSeerConfig(
            data_providers=10, metadata_providers=2, chunk_size_mb=64.0,
            testbed=TestbedConfig(seed=61, rate_granularity_s=0.01),
        ),
        access=access,
    )
    monitoring = MonitoringStack(deployment.testbed, MonitoringConfig(
        services=2, storage_servers=2, flush_interval_s=1.0,
    ))
    monitoring.attach(deployment)
    security = PolicyManagement(
        deployment, monitoring,
        policies=[read_flood_policy(max_rate_per_s=1.0, window_s=15.0)],
        access_table=access,
        config=SecurityConfig(scan_interval_s=5.0, history_pull_interval_s=2.0),
    )

    env = deployment.env
    writer = deployment.new_client("publisher")
    state = {}

    def publish(env):
        blob_id = yield env.process(writer.create_blob(64.0))
        yield env.process(writer.append(blob_id, 512.0))
        state["blob"] = blob_id

    process = env.process(publish(env))
    deployment.run(until=process)
    blob_id = state["blob"]

    # A legitimate reader (slow) and a read-flood attacker (fast).
    good = CorrectReader(deployment.new_client("good-reader"), blob_id,
                         op_mb=512.0)
    evil = DosReader(deployment.new_client("evil-reader"), blob_id,
                     start_at=10.0, read_mb=64.0, parallel=48)
    env.process(good.run(env))
    env.process(evil.run(env))
    security.start()
    deployment.run(until=120.0)

    assert evil.blocked
    assert not good.denied
    assert good.results  # the legitimate reader kept working
    detected = {v.client_id for v in security.violations}
    assert "evil-reader" in detected
    assert "good-reader" not in detected
    # The violation came from the read policy specifically.
    assert any(v.policy.name == "dos-read-flood" for v in security.violations)


def test_read_flood_policy_ignores_writers():
    from repro.security import UserActivityHistory, UserEvent

    history = UserActivityHistory()
    for i in range(100):
        history.record(UserEvent(
            time=i * 0.1, client_id="writer", kind="op_start", op="append",
        ))
    policy = read_flood_policy(max_rate_per_s=1.0, window_s=10.0)
    assert not policy.evaluate(history, "writer", now=10.0)
