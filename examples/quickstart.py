"""Quickstart: deploy BlobSeer, store data, read it back, inspect state.

Run:  python examples/quickstart.py
"""

from repro import telemetry
from repro.blobseer import BlobSeerConfig, BlobSeerDeployment
from repro.cluster import TestbedConfig
from repro.telemetry import critical_path


def main() -> None:
    # 1. A small simulated deployment: 12 data providers, 2 metadata
    #    providers, a provider manager and a version manager, all on a
    #    simulated GbE cluster.
    deployment = BlobSeerDeployment(BlobSeerConfig(
        data_providers=12,
        metadata_providers=2,
        chunk_size_mb=64.0,
        replication=2,
        testbed=TestbedConfig(seed=42),
    ))
    env = deployment.env
    tele = telemetry.enable(deployment, profile=False)

    # 2. Two clients on their own nodes.
    alice = deployment.new_client("alice")
    bob = deployment.new_client("bob")

    results = {}

    def alice_writes(env):
        blob_id = yield from alice.create_blob(chunk_size_mb=64.0)
        write = yield from alice.write(blob_id, offset_mb=0.0, size_mb=1024.0)
        results["blob"] = blob_id
        results["write"] = write

    def bob_reads(env):
        # Wait until Alice has published something.
        while "write" not in results:
            yield env.timeout(0.5)
        read = yield from bob.read(results["blob"], 0.0, 1024.0)
        results["read"] = read

    env.process(alice_writes(env))
    env.process(bob_reads(env))
    deployment.run(until=60.0)

    write, read = results["write"], results["read"]
    print(f"alice wrote 1 GB as version {write.version} "
          f"in {write.duration_s:.2f}s ({write.throughput_mbps:.1f} MB/s)")
    print(f"bob   read  1 GB of version {read.version} "
          f"in {read.duration_s:.2f}s ({read.throughput_mbps:.1f} MB/s)")

    # 3. Inspect the deployment.
    stats = deployment.storage_stats()
    print(f"\npool: {stats['pool_size']} providers, "
          f"{stats['chunk_count']} chunks, {stats['total_stored_mb']:.0f} MB stored "
          f"(replication=2 doubles the 1024 MB payload)")
    holders = sorted(
        (p.provider_id, len(p.chunks))
        for p in deployment.providers.values() if p.chunks
    )
    print("chunk placement:", ", ".join(f"{pid}:{n}" for pid, n in holders))

    # 4. Causal trace of the write: one connected trace spanning the
    #    client, the provider manager, every data provider that took a
    #    chunk, and the version manager — analyzed for its critical path.
    root = tele.tracer.spans_named("client.write")[0]
    report = critical_path.analyze(tele.tracer, root=root)
    print()
    print(report.render())


if __name__ == "__main__":
    main()
