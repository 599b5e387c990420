"""Tests for the MapReduce-style workload."""

import pytest

from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import FaultInjector, TestbedConfig
from repro.workloads import MapReduceConfig, MapReduceJob


def make_deployment(providers=12, seed=15):
    return BlobSeerDeployment(BlobSeerConfig(
        data_providers=providers,
        metadata_providers=2,
        chunk_size_mb=64.0,
        testbed=TestbedConfig(seed=seed, rate_granularity_s=0.01),
    ))


def run_job(deployment, config, job_id="job"):
    job = MapReduceJob(deployment, config, job_id=job_id)
    process = deployment.env.process(job.run(deployment.env))
    deployment.run(until=process)
    return job


def test_job_completes_all_stages():
    deployment = make_deployment()
    job = run_job(deployment, MapReduceConfig(
        input_mb=1024.0, map_tasks=8, reduce_tasks=2,
    ))
    summary = job.summary()
    assert job.failed_tasks == 0
    assert summary["input_s"] > 0
    assert summary["map_s"] > 0
    assert summary["reduce_s"] > 0
    assert job.output_blob is not None
    assert summary["output_mb"] > 0


def test_map_stage_reads_concurrently_faster_than_serial_input():
    """The headline BlobSeer property: concurrent fine-grained reads
    aggregate far beyond a single stream."""
    deployment = make_deployment(providers=16)
    job = run_job(deployment, MapReduceConfig(
        input_mb=2048.0, map_tasks=16, reduce_tasks=2, map_cpu_s_per_mb=0.0,
    ))
    input_rate = job.stats["input"].throughput_mbps
    map_rate = job.stats["map"].throughput_mbps
    assert map_rate > 3.0 * input_rate, (input_rate, map_rate)


def test_intermediate_blobs_one_per_map():
    deployment = make_deployment()
    job = run_job(deployment, MapReduceConfig(
        input_mb=512.0, map_tasks=4, reduce_tasks=2,
    ))
    assert sorted(job.intermediate) == [0, 1, 2, 3]
    for blob_id in job.intermediate.values():
        version, size_mb, _chunk = deployment.vmanager.latest(blob_id)
        assert version >= 1 and size_mb > 0


def test_output_size_reflects_selectivities():
    deployment = make_deployment()
    config = MapReduceConfig(
        input_mb=1024.0, map_tasks=4, reduce_tasks=2,
        map_selectivity=0.25,
    )
    job = run_job(deployment, config)
    # map out: ceil(64*0.25 -> padded to 64) per task = 64 MB x 4 = 256;
    # reduce out: per reduce, 128 MB in * 0.5 -> padded 64 MB x 2 = 128.
    assert job.summary()["output_mb"] == pytest.approx(128.0)


def test_invalid_configs_rejected():
    deployment = make_deployment()
    with pytest.raises(ValueError):
        MapReduceJob(deployment, MapReduceConfig(input_mb=1000.0))  # not chunk-aligned
    with pytest.raises(ValueError):
        MapReduceJob(deployment, MapReduceConfig(input_mb=1024.0, map_tasks=5))


def test_job_survives_provider_crash_with_replication():
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=12,
        metadata_providers=2,
        chunk_size_mb=64.0,
        replication=2,
        testbed=TestbedConfig(seed=16, rate_granularity_s=0.01),
    ))
    injector = FaultInjector(deployment.testbed)
    injector.crash_at(deployment.providers["provider-3"].node, at=15.0)
    job = run_job(deployment, MapReduceConfig(
        input_mb=1024.0, map_tasks=8, reduce_tasks=2,
    ))
    # With 2 replicas, the crash mid-job must not fail any reads.
    assert job.failed_tasks == 0
    assert job.summary()["output_mb"] > 0


def test_two_jobs_share_the_deployment():
    deployment = make_deployment(providers=16)
    config = MapReduceConfig(input_mb=512.0, map_tasks=4, reduce_tasks=2)
    job_a = MapReduceJob(deployment, config, job_id="a")
    job_b = MapReduceJob(deployment, config, job_id="b")
    process_a = deployment.env.process(job_a.run(deployment.env))
    process_b = deployment.env.process(job_b.run(deployment.env))
    deployment.run(until=deployment.env.all_of([process_a, process_b]))
    assert job_a.failed_tasks == 0 and job_b.failed_tasks == 0
    assert job_a.output_blob != job_b.output_blob
